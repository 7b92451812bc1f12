// Package sched implements an iteration-level scheduler in the style of
// vLLM/Orca, layered on the paged KV cache of internal/kvcache. Every
// deployment of the simulator core plans its instances' rounds through
// it, under one of two policies chosen by Params.BatchTokens.
//
// The batched policy (BatchTokens > 0) is continuous batching: each
// scheduling round ("iteration") admits waiting sequences up to a token
// budget, optionally splitting long prompts into chunks so prefills do
// not stall running decodes, advances every decoding sequence by one
// token, and — when the KV block pool is exhausted — preempts the
// lowest-id victim, releasing its blocks for recompute-on-resume.
//
// The whole-request policy (BatchTokens == 0) is the simulator's
// original admission rule: FIFO admission up to the running-sequence
// cap with no token budget, each admission reserving its prompt plus
// output in KV blocks, so no later round needs a block and nothing is
// preempted, and prefilling and joining the decode batch in its
// admission round.
//
// The scheduler is deliberately simulation-agnostic: it knows about
// tokens and blocks, not about virtual time or cost models. The
// simulator core's event loop calls Plan at iteration start, prices the
// returned prefill chunks and decode batch with the engine cost model,
// and calls FinishRun when the priced interval elapses.
// Everything the scheduler does is a deterministic function of the
// call sequence: sequences carry monotonically assigned ids, all
// internal collections are slices or FIFO rings walked in order, and
// the KV manager's free list is restored byte-for-byte on rollback —
// so a fixed seed yields byte-identical schedules across runs and
// GOMAXPROCS settings.
package sched

import (
	"fmt"
	"math"

	"github.com/medusa-repro/medusa/internal/eventq"
	"github.com/medusa-repro/medusa/internal/kvcache"
)

// Params configures one scheduler instance. The zero value selects the
// whole-request policy over a pool the simulator sizes.
type Params struct {
	// BatchTokens is the per-iteration token budget (vLLM
	// max_num_batched_tokens). Every decoding sequence consumes one
	// budget token; the remainder is available for prefill chunks.
	// A value > 0 selects the batched policy, 0 the whole-request one.
	BatchTokens int
	// KVBlocks sizes the paged KV pool in blocks of
	// kvcache.TokensPerBlock tokens, under either policy. 0 lets the
	// simulator derive it from the instance profile's measured KV
	// capacity.
	KVBlocks int
	// ChunkedPrefill splits prompts across iterations so a long
	// prefill cannot monopolize the token budget; without it a prompt
	// is admitted whole, waiting for an iteration with no other
	// prefill when it exceeds the budget. The whole-request policy,
	// which has no budget, ignores it.
	ChunkedPrefill bool
}

// State is a sequence's position in the scheduler's lifecycle.
type State int

// Scheduler lifecycle states. A sequence enters Waiting on admission
// to the scheduler's queue, moves to Prefilling when its first chunk
// is planned, to Decoding when its prefill target is reached, and to
// Finished when its last token is emitted. Preemption sends a
// Decoding or Prefilling sequence back to Waiting with its KV blocks
// released (recompute on resume).
const (
	StateWaiting State = iota
	StatePrefilling
	StateDecoding
	StateFinished
)

// Seq is one sequence under scheduler management, owned by the caller
// and handed over when Plan pops it: until done observes its completion
// (or Drain returns it), all but Data is scheduler-owned. The embedded
// kvcache.Seq is its KV handle: Len and Table report its cached tokens
// and block table, whose storage a reused Seq keeps.
type Seq[T any] struct {
	// Data is the caller's payload (the simulators store their
	// per-request state here).
	Data T

	// The fields every round reads come first, to share a cache line.
	state   State
	emitted int // tokens emitted so far (survives preemption)
	output  int // tokens to generate
	planned int // prefill tokens planned for the in-flight round (0: none)
	filled  int // tokens prefilled toward target
	target  int // prefill target: prompt + tokens to recompute after preemption
	prompt  int // original prompt length in tokens
	id      uint64
	// preemptions counts how many times this sequence was evicted.
	preemptions int

	kvcache.Seq
}

// Preemptions reports how many times the sequence was preempted.
func (q *Seq[T]) Preemptions() int { return q.preemptions }

// Chunk is one planned prefill slice: Tokens of Seq's prompt (or
// recompute prefix) processed this iteration.
type Chunk[T any] struct {
	// Seq is the sequence the chunk belongs to.
	Seq *Seq[T]
	// Tokens is how many prompt tokens this chunk processes.
	Tokens int
}

// Iteration describes the work one scheduling round planned. The
// caller owns it and may share one among schedulers: Plan overwrites
// it, reusing its slices' storage.
type Iteration[T any] struct {
	// Chunks lists the prefill work, in admission order.
	Chunks []Chunk[T]
	// Decode lists the sequences advancing one decode step, in
	// running order. Under the whole-request policy it is the running
	// set itself, this round's admissions included (each of those also
	// has a chunk of its whole prompt), and valid only until FinishRun.
	Decode []*Seq[T]
	// Admitted lists sequences newly admitted from the caller's queue
	// this round (resumed preemption victims are not re-listed).
	Admitted []*Seq[T]
	// Preemptions counts victims evicted while planning this round.
	Preemptions int

	// decode backs a batched round's Decode.
	decode []*Seq[T]
}

// Empty reports whether the round planned no work at all.
func (it *Iteration[T]) Empty() bool { return len(it.Chunks) == 0 && len(it.Decode) == 0 }

// Scheduler is one instance's iteration-level scheduler. It is not
// safe for concurrent use; the event loops serialize access.
type Scheduler[T any] struct {
	params Params
	// maxSeqs caps concurrently running sequences (vLLM max_num_seqs);
	// 0 means unlimited.
	maxSeqs int
	kv      kvcache.Manager
	nextID  uint64

	// running holds Prefilling and Decoding sequences in admission
	// order (resumed victims re-enter at the tail, so the order is not
	// id-sorted; victim choice scans for the minimum id).
	running []*Seq[T]
	// preempted queues evicted sequences for resume, FIFO, ahead of
	// any new admission.
	preempted eventq.Deque[*Seq[T]]

	// it is the round Plan last filled.
	it *Iteration[T]
	// run is how many rounds the next FinishRun may apply at once: what
	// DecodeRun reported for the last Plan (0 until it is asked).
	run int
}

// Reset readies the scheduler for a new instance: a KV pool of
// p.KVBlocks blocks, and at most maxSeqs sequences running at once (0:
// no cap). It reuses the KV manager and queues of a scheduler recycled
// with its instance's state; a zero Scheduler is ready once Reset.
func (s *Scheduler[T]) Reset(p Params, maxSeqs int) {
	if p.BatchTokens == 0 {
		p.ChunkedPrefill = false
	}
	s.params, s.maxSeqs = p, maxSeqs
	// Release while the old manager still owns the blocks: its Reset
	// takes them back without emptying the sequences' tables.
	for _, q := range s.running {
		s.kv.Release(&q.Seq)
	}
	s.running = s.running[:0]
	s.kv.Reset(p.KVBlocks)
	s.nextID = 0
	for s.preempted.Len() > 0 {
		s.preempted.PopFront()
	}
	s.it = nil
	s.run = 0
}

// Running reports the number of sequences in the Prefilling or
// Decoding state.
func (s *Scheduler[T]) Running() int { return len(s.running) }

// PreemptedWaiting reports the number of evicted sequences awaiting
// resume.
func (s *Scheduler[T]) PreemptedWaiting() int { return s.preempted.Len() }

// Idle reports whether the scheduler holds no sequences at all.
func (s *Scheduler[T]) Idle() bool { return len(s.running) == 0 && s.preempted.Len() == 0 }

// KVFreeBlocks exposes the KV pool's free-block count (observability).
func (s *Scheduler[T]) KVFreeBlocks() int { return s.kv.NumFreeBlocks() }

// lowestRunning returns the running sequence with the smallest id —
// the deterministic preemption victim.
func (s *Scheduler[T]) lowestRunning() *Seq[T] {
	var victim *Seq[T]
	for _, q := range s.running {
		if victim == nil || q.id < victim.id {
			victim = q
		}
	}
	return victim
}

// preempt evicts a running sequence: its KV blocks are released, its
// prefill target grows to cover recomputing the tokens it had already
// generated, and it queues for resume ahead of new admissions.
func (s *Scheduler[T]) preempt(victim *Seq[T]) {
	s.kv.Release(&victim.Seq)
	victim.state = StateWaiting
	victim.target = victim.prompt + victim.emitted
	victim.filled = 0
	victim.planned = 0
	victim.preemptions++
	for i, q := range s.running {
		if q == victim {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.preempted.PushBack(victim)
}

// maxFitTokens returns how many more tokens a sequence can grow by
// without exhausting the KV pool: the slack in its last block plus
// every free block.
func (s *Scheduler[T]) maxFitTokens(q *Seq[T]) int {
	held := q.Len()
	slack := kvcache.BlocksForTokens(held)*kvcache.TokensPerBlock - held
	return slack + s.kv.NumFreeBlocks()*kvcache.TokensPerBlock
}

// Plan runs one scheduling round and writes the work to price and
// execute into it; FinishRun applies it. Under the whole-request policy
// it.Decode is the running set itself, valid until FinishRun. peek
// reports the head of the caller's waiting queue (prompt and output
// token counts); pop removes it, returning its sequence handle, empty
// (holding no KV blocks), with Data set — the scheduler only pops what
// it admits. Plan returns an
// error when a single sequence cannot fit in the KV pool even alone — a
// configuration error, since no preemption schedule can serve it.
func (s *Scheduler[T]) Plan(it *Iteration[T], peek func() (prompt, output int, ok bool), pop func() *Seq[T]) error {
	s.it = it
	it.Chunks = it.Chunks[:0]
	it.Admitted = it.Admitted[:0]
	it.Preemptions = 0
	s.run = 0

	// Phase 1 — the decode batch. Every whole-request sequence
	// decodes, on blocks it already holds; batched ones reserve theirs.
	if s.holdsLifetime() {
		it.Decode = s.running
	} else {
		s.reserveDecodes()
	}

	// Phases 2–3 plan prefill work. When every running sequence is a
	// stalled prefill (no chunk fit, no decode), evicting the lowest
	// victim frees blocks so the round makes progress; the loop
	// terminates because the running set shrinks each pass, and an
	// empty running set always admits the queue head (a lone
	// sequence's whole lifetime fits the pool by the admission check).
	for {
		budget := s.params.BatchTokens - len(it.Decode)
		if s.holdsLifetime() {
			budget = math.MaxInt
		} else {
			budget = s.continuePrefills(budget)
		}
		if err := s.admitWaiting(budget, peek, pop); err != nil {
			return err
		}
		if len(it.Chunks) > 0 || len(it.Decode) > 0 || len(s.running) == 0 {
			break
		}
		s.preempt(s.lowestRunning())
		it.Preemptions++
	}
	return nil
}

// reserveDecodes plans the batched policy's decode batch, reserving
// atomically for the whole batch: every Decoding sequence extends by
// one token. On exhaustion the whole reservation rolls back (restoring
// the free list byte-for-byte), the lowest-id running sequence is
// evicted, and the batch retries over the survivors. The retry
// terminates: each pass shrinks the running set by one.
func (s *Scheduler[T]) reserveDecodes() {
	it := s.it
	for {
		it.decode = it.decode[:0]
		ok := true
		for _, q := range s.running {
			if q.state != StateDecoding {
				continue
			}
			if s.kv.Reserve(&q.Seq, 1) != nil {
				s.kv.Rollback()
				s.preempt(s.lowestRunning())
				it.Preemptions++
				ok = false
				break
			}
			it.decode = append(it.decode, q)
		}
		if ok {
			s.kv.Commit()
			it.Decode = it.decode
			return
		}
	}
}

// continuePrefills plans the next chunk of every mid-prefill sequence
// (chunked mode; whole-prompt admission never leaves a sequence
// Prefilling across rounds) and returns the remaining budget.
func (s *Scheduler[T]) continuePrefills(budget int) int {
	for _, q := range s.running {
		if q.state != StatePrefilling || budget <= 0 {
			continue
		}
		chunk := q.target - q.filled
		if s.params.ChunkedPrefill && chunk > budget {
			chunk = budget
		}
		if fit := s.maxFitTokens(q); chunk > fit {
			// Not enough blocks: take what fits (chunked) or stall.
			if !s.params.ChunkedPrefill {
				continue
			}
			chunk = fit
		}
		if chunk <= 0 || (!s.params.ChunkedPrefill && chunk > budget) {
			continue
		}
		if s.kv.Reserve(&q.Seq, chunk) != nil {
			s.kv.Rollback()
			continue
		}
		s.kv.Commit()
		q.planned = chunk
		s.it.Chunks = append(s.it.Chunks, Chunk[T]{Seq: q, Tokens: chunk})
		budget -= chunk
	}
	return budget
}

// admitWaiting fills the remaining budget with resumed preemption
// victims first (FIFO — they arrived before anything still queued),
// then new sequences popped from the caller's queue. A whole-request
// admission reserves its prompt plus output, so the queue head waits
// until its lifetime fits, and it joins this round's decode batch: its
// prefill emits the first token in the same round.
func (s *Scheduler[T]) admitWaiting(budget int, peek func() (int, int, bool), pop func() *Seq[T]) error {
	for s.preempted.Len() > 0 && budget > 0 && s.roomForSeq() {
		q := s.preempted.Front()
		chunk, ok := s.admissionChunk(q.target, budget)
		if !ok || s.kv.Reserve(&q.Seq, chunk) != nil {
			s.kv.Rollback()
			break // head-of-line: wait for completions to free blocks
		}
		s.kv.Commit()
		s.preempted.PopFront()
		q.state = StatePrefilling
		q.planned = chunk
		q.filled = 0
		s.running = append(s.running, q)
		s.it.Chunks = append(s.it.Chunks, Chunk[T]{Seq: q, Tokens: chunk})
		budget -= chunk
	}
	for s.preempted.Len() == 0 && budget > 0 && s.roomForSeq() {
		prompt, output, ok := peek()
		if !ok {
			break
		}
		if need := kvcache.BlocksForTokens(prompt + output); need > s.kv.NumBlocks() {
			return fmt.Errorf("sched: sequence needs %d KV blocks (prompt %d + output %d tokens), pool has %d",
				need, prompt, output, s.kv.NumBlocks())
		}
		chunk, ok := s.admissionChunk(prompt, budget)
		reserve := chunk
		if s.holdsLifetime() {
			reserve = prompt + output
		}
		if !ok || kvcache.BlocksForTokens(reserve) > s.kv.NumFreeBlocks() {
			break // head-of-line: wait for completions to free blocks
		}
		q := pop()
		var err error
		if s.holdsLifetime() {
			// Nothing reads a whole-request sequence's block table.
			err = s.kv.Hold(&q.Seq, reserve)
		} else {
			q.SizeFor(prompt + output)
			err = s.kv.Append(&q.Seq, reserve)
		}
		if err != nil {
			panic(err) // a handle handed over empty fits, as just checked
		}
		q.id = s.nextID
		s.nextID++
		q.prompt = prompt
		q.output = output
		q.target = prompt
		q.filled = 0
		q.emitted = 0
		q.state = StatePrefilling
		q.planned = chunk
		q.preemptions = 0
		s.running = append(s.running, q)
		if s.holdsLifetime() {
			q.filled, q.planned = prompt, 0
			q.state = StateDecoding
			s.it.Decode = s.running
		}
		s.it.Chunks = append(s.it.Chunks, Chunk[T]{Seq: q, Tokens: chunk})
		s.it.Admitted = append(s.it.Admitted, q)
		budget -= chunk
	}
	return nil
}

// Drain evicts every sequence from the scheduler — running order
// first, then queued preemption victims — invoking fn with each
// payload and releasing its KV blocks. The simulator core uses it for
// node-crash recovery: the caller requeues the payloads onto the
// deployment's pending queue for surviving instances to re-admit.
func (s *Scheduler[T]) Drain(fn func(data T)) {
	for _, q := range s.running {
		s.kv.Release(&q.Seq)
		fn(q.Data)
	}
	s.running = s.running[:0]
	for s.preempted.Len() > 0 {
		fn(s.preempted.PopFront().Data)
	}
}

// roomForSeq reports whether the cap allows another running sequence.
func (s *Scheduler[T]) roomForSeq() bool {
	return s.maxSeqs == 0 || len(s.running) < s.maxSeqs
}

// Full reports whether the running set is at its cap, so no round
// admits anything before a sequence completes.
func (s *Scheduler[T]) Full() bool { return !s.roomForSeq() }

// holdsLifetime reports whether admissions reserve their whole
// lifetime's KV blocks: the whole-request policy.
func (s *Scheduler[T]) holdsLifetime() bool { return s.params.BatchTokens == 0 }

// admissionChunk sizes a sequence's first chunk under the remaining
// budget and KV free space. In chunked mode any positive slice is
// admissible; whole-prompt mode requires the full target within
// budget, except that the round's first prefill may exceed the budget
// (otherwise a prompt longer than BatchTokens could never be served).
func (s *Scheduler[T]) admissionChunk(target, budget int) (int, bool) {
	fit := s.kv.NumFreeBlocks() * kvcache.TokensPerBlock
	if s.params.ChunkedPrefill {
		chunk := target
		if chunk > budget {
			chunk = budget
		}
		if chunk > fit {
			chunk = fit
		}
		if chunk <= 0 {
			return 0, false
		}
		return chunk, true
	}
	if target > fit {
		return 0, false
	}
	if target > budget && len(s.it.Chunks) > 0 {
		return 0, false
	}
	return target, true
}

// DecodeRun reports how many rounds, counting the one Plan just
// planned (its Iteration not yet planned again), would plan that same round again while the caller's queue
// stays as it is: empty when queued is false, and otherwise unable to
// admit anything because the running set is Full. That holds for a
// pure-decode round over every running sequence with no preemption
// victim waiting: later rounds then decode the same batch until the
// first completion, which frees room, or until some sequence needs a
// new KV block (only such a round can allocate or preempt; a
// whole-request sequence never does), so the run ends with the first
// completion or just before that block. Any other round is a run of 1.
// FinishRun may apply up to the reported number of rounds in one call.
func (s *Scheduler[T]) DecodeRun(queued bool) int {
	s.run = 1
	if len(s.it.Chunks) > 0 || len(s.it.Decode) == 0 || len(s.it.Decode) != len(s.running) || s.preempted.Len() > 0 ||
		queued && s.roomForSeq() {
		return 1
	}
	n := s.it.Decode[0].output - s.it.Decode[0].emitted
	for _, q := range s.it.Decode {
		n = min(n, q.output-q.emitted)
		if !s.holdsLifetime() {
			held := q.Len()
			n = min(n, 1+kvcache.BlocksForTokens(held)*kvcache.TokensPerBlock-held)
		}
	}
	s.run = n
	return n
}

// FinishRun applies a planned round after the caller has priced and
// elapsed it: prefilled chunks advance toward their targets, a
// completed prefill emits the sequence's first token (recomputed
// resumes emit their next token), and every decoded sequence emits
// one more. first observes each sequence's first token; done observes
// each completed sequence after its final token, once its KV blocks are
// released, and the caller may reuse its handle from then on. Both
// callbacks fire in running order — the deterministic metric-recording
// order — and only at those two events, so a round's other sequences
// cost no call.
//
// With n > 1 it applies n rounds of a decode run at once: the planned
// round and n−1 more that Plan would have planned identically, which n
// must not exceed (see DecodeRun). Each batched sequence reserves the
// later rounds' tokens inside the KV block it already holds, and every
// sequence emits n tokens, so the block tables, the free list and the
// emitted counts are those of n single rounds; done then observes the
// sequences the run's last round completes.
func (s *Scheduler[T]) FinishRun(n int, first, done func(data T)) {
	if n > 1 && n > s.run {
		panic(fmt.Sprintf("sched: FinishRun(%d) exceeds the decode run of %d rounds", n, s.run))
	}
	s.run = 0
	keep := s.running[:0]
	for _, q := range s.running {
		if q.state == StatePrefilling {
			// A stalled prefill (nothing planned) waits; the others
			// advance toward their targets.
			q.filled += q.planned
			if q.planned == 0 || q.filled < q.target {
				q.planned = 0
				keep = append(keep, q)
				continue
			}
			q.planned = 0
			q.state = StateDecoding
		} else {
			// Plan put every Decoding sequence in the decode batch.
			if n > 1 && !s.holdsLifetime() {
				// Inside the last block (DecodeRun): no block moves.
				if err := s.kv.Append(&q.Seq, n-1); err != nil {
					panic(err)
				}
			}
		}
		if q.emitted == 0 {
			first(q.Data)
		}
		q.emitted += n
		if q.emitted >= q.output {
			q.state = StateFinished
			s.kv.Release(&q.Seq)
			done(q.Data)
			continue
		}
		keep = append(keep, q)
	}
	s.running = keep
}
