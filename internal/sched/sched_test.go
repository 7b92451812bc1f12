package sched

import (
	"testing"

	"github.com/medusa-repro/medusa/internal/kvcache"
)

// req is the test payload.
type req struct {
	id             int
	prompt, output int
}

// queue adapts a slice to the peek/pop callbacks.
type queue struct {
	reqs []req
}

func (w *queue) peek() (int, int, bool) {
	if len(w.reqs) == 0 {
		return 0, 0, false
	}
	return w.reqs[0].prompt, w.reqs[0].output, true
}

func (w *queue) pop() req {
	r := w.reqs[0]
	w.reqs = w.reqs[1:]
	return r
}

// drive runs the scheduler to completion, returning the per-request
// iteration index of each token as "events" plus the completion order.
func drive(t *testing.T, s *Scheduler[req], w *queue, maxRounds int) (tokens map[int][]int, doneOrder []int) {
	t.Helper()
	tokens = map[int][]int{}
	for round := 0; round < maxRounds; round++ {
		it, err := s.Plan(w.peek, w.pop)
		if err != nil {
			t.Fatal(err)
		}
		if it.Empty() {
			if !s.Idle() {
				t.Fatalf("round %d: empty iteration with %d running / %d preempted",
					round, s.Running(), s.PreemptedWaiting())
			}
			return tokens, doneOrder
		}
		s.Finish(func(r req, emitted int) {
			tokens[r.id] = append(tokens[r.id], round)
		}, func(r req) {
			doneOrder = append(doneOrder, r.id)
		})
	}
	t.Fatalf("scheduler did not drain in %d rounds", maxRounds)
	return nil, nil
}

// Finish applies one planned round, FinishRun(1, …): the single-round
// path the decode-run tests and FuzzDecodeRunMatchesSteps compare
// FinishRun(n) against.
func (s *Scheduler[T]) Finish(emit func(data T, emitted int), done func(data T)) {
	s.FinishRun(1, emit, done)
}

func TestSingleSequenceLifecycle(t *testing.T) {
	s := New[req](Params{BatchTokens: 64, KVBlocks: 16})
	w := &queue{reqs: []req{{id: 1, prompt: 10, output: 3}}}

	it, err := s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Chunks) != 1 || it.Chunks[0].Tokens != 10 || len(it.Admitted) != 1 {
		t.Fatalf("admission round: %d chunks (%v tokens), %d admitted",
			len(it.Chunks), it.Chunks, len(it.Admitted))
	}
	var first int
	s.Finish(func(r req, emitted int) { first = emitted }, func(req) { t.Fatal("early done") })
	if first != 1 {
		t.Fatalf("prefill completion emitted token %d, want 1", first)
	}
	if st := it.Admitted[0].state; st != StateDecoding {
		t.Fatalf("after prefill: state %v", st)
	}

	// Two more decode rounds complete output=3.
	done := false
	for i := 0; i < 2; i++ {
		it, err := s.Plan(w.peek, w.pop)
		if err != nil {
			t.Fatal(err)
		}
		if len(it.Decode) != 1 || len(it.Chunks) != 0 {
			t.Fatalf("decode round %d: %d decode, %d chunks", i, len(it.Decode), len(it.Chunks))
		}
		s.Finish(func(req, int) {}, func(req) { done = true })
	}
	if !done || !s.Idle() {
		t.Fatalf("done=%v idle=%v", done, s.Idle())
	}
}

func TestChunkedPrefillSplitsLongPrompt(t *testing.T) {
	s := New[req](Params{BatchTokens: 32, KVBlocks: 16, ChunkedPrefill: true})
	w := &queue{reqs: []req{{id: 1, prompt: 100, output: 2}}}
	sizes := []int{}
	for {
		it, err := s.Plan(w.peek, w.pop)
		if err != nil {
			t.Fatal(err)
		}
		if it.Empty() {
			break
		}
		for _, c := range it.Chunks {
			sizes = append(sizes, c.Tokens)
		}
		s.Finish(func(req, int) {}, func(req) {})
	}
	want := []int{32, 32, 32, 4}
	if len(sizes) != len(want) {
		t.Fatalf("chunks %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunks %v, want %v", sizes, want)
		}
	}
}

func TestWholePromptWaitsForBudgetException(t *testing.T) {
	// Non-chunked: a 50-token prompt exceeds the 32-token budget, so it
	// only runs as the round's sole prefill.
	s := New[req](Params{BatchTokens: 32, KVBlocks: 32})
	w := &queue{reqs: []req{
		{id: 1, prompt: 8, output: 2},
		{id: 2, prompt: 50, output: 2},
	}}
	it, err := s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 admits req 1 (8 ≤ budget); req 2 must wait (budget left
	// 24 < 50 and a prefill already planned).
	if len(it.Chunks) != 1 || it.Chunks[0].Tokens != 8 {
		t.Fatalf("round 1 chunks %v", it.Chunks)
	}
	s.Finish(func(req, int) {}, func(req) {})
	it, err = s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: req 1 decodes; req 2 is the first prefill of the round,
	// so the budget exception admits all 50 tokens.
	if len(it.Decode) != 1 || len(it.Chunks) != 1 || it.Chunks[0].Tokens != 50 {
		t.Fatalf("round 2 decode=%d chunks=%v", len(it.Decode), it.Chunks)
	}
}

func TestDecodeConsumesBudget(t *testing.T) {
	s := New[req](Params{BatchTokens: 10, KVBlocks: 64, ChunkedPrefill: true})
	w := &queue{reqs: []req{
		{id: 1, prompt: 4, output: 8},
		{id: 2, prompt: 4, output: 8},
		{id: 3, prompt: 40, output: 2},
	}}
	// Round 1: admit 1 and 2 (8 tokens) and the first 2-token chunk of 3.
	it, err := s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, c := range it.Chunks {
		got += c.Tokens
	}
	if got != 10 || len(it.Chunks) != 3 {
		t.Fatalf("round 1: %d prefill tokens in %d chunks", got, len(it.Chunks))
	}
	s.Finish(func(req, int) {}, func(req) {})
	// Round 2: seqs 1,2 decode (2 budget tokens), leaving 8 for seq 3.
	it, err = s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Decode) != 2 || len(it.Chunks) != 1 || it.Chunks[0].Tokens != 8 {
		t.Fatalf("round 2: decode=%d chunks=%v", len(it.Decode), it.Chunks)
	}
}

func TestPreemptionEvictsLowestSeq(t *testing.T) {
	// Pool of 4 blocks = 64 tokens. Two sequences of 32+32 tokens fill
	// it exactly at admission; the first decode round must evict one,
	// and the victim must be the lowest id.
	s := New[req](Params{BatchTokens: 64, KVBlocks: 4})
	w := &queue{reqs: []req{
		{id: 1, prompt: 32, output: 32},
		{id: 2, prompt: 32, output: 32},
	}}
	it, err := s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Admitted) != 2 {
		t.Fatalf("admitted %d", len(it.Admitted))
	}
	a, b := it.Admitted[0], it.Admitted[1]
	s.Finish(func(req, int) {}, func(req) {})

	it, err = s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	if it.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", it.Preemptions)
	}
	if a.state != StateWaiting || a.Preemptions() != 1 {
		t.Fatalf("victim: state=%v preemptions=%d, want lowest-id waiting", a.state, a.Preemptions())
	}
	if b.state != StateDecoding || len(it.Decode) != 1 || it.Decode[0] != b {
		t.Fatalf("survivor: state=%v decode=%v", b.state, it.Decode)
	}
	if s.PreemptedWaiting() != 1 {
		t.Fatalf("preempted queue = %d", s.PreemptedWaiting())
	}
}

func TestPreemptedSequenceResumesAndCompletes(t *testing.T) {
	s := New[req](Params{BatchTokens: 64, KVBlocks: 4, ChunkedPrefill: true})
	w := &queue{reqs: []req{
		{id: 1, prompt: 32, output: 32},
		{id: 2, prompt: 32, output: 32},
	}}
	tokens, doneOrder := drive(t, s, w, 500)
	if len(tokens[1]) != 32 || len(tokens[2]) != 32 {
		t.Fatalf("token counts: %d and %d, want 32 each", len(tokens[1]), len(tokens[2]))
	}
	if len(doneOrder) != 2 {
		t.Fatalf("done %v", doneOrder)
	}
	// Token rounds must be strictly increasing per request (monotone
	// virtual progress even across preemptions).
	for id, rounds := range tokens {
		for i := 1; i < len(rounds); i++ {
			if rounds[i] <= rounds[i-1] {
				t.Fatalf("req %d: token %d at round %d after round %d", id, i, rounds[i], rounds[i-1])
			}
		}
	}
}

func TestRecomputeOnResumeGrowsTarget(t *testing.T) {
	s := New[req](Params{BatchTokens: 64, KVBlocks: 4})
	w := &queue{reqs: []req{
		{id: 1, prompt: 32, output: 32},
		{id: 2, prompt: 32, output: 32},
	}}
	it, _ := s.Plan(w.peek, w.pop)
	a := it.Admitted[0]
	s.Finish(func(req, int) {}, func(req) {}) // both prefilled, 1 token each
	s.Plan(w.peek, w.pop)                     // evicts a
	if a.target != a.prompt+a.emitted {
		t.Fatalf("victim target %d, want prompt %d + emitted %d", a.target, a.prompt, a.emitted)
	}
	if a.filled != 0 {
		t.Fatalf("victim filled %d, want 0 (recompute on resume)", a.filled)
	}
}

func TestOversizedSequenceIsAnError(t *testing.T) {
	s := New[req](Params{BatchTokens: 64, KVBlocks: 2}) // 32-token pool
	w := &queue{reqs: []req{{id: 1, prompt: 30, output: 10}}}
	if _, err := s.Plan(w.peek, w.pop); err == nil {
		t.Fatal("Plan admitted a sequence that cannot fit the pool")
	}
}

func TestMaxSeqsCapsAdmission(t *testing.T) {
	s := New[req](Params{BatchTokens: 64, KVBlocks: 64, MaxSeqs: 2})
	w := &queue{reqs: []req{
		{id: 1, prompt: 4, output: 2},
		{id: 2, prompt: 4, output: 2},
		{id: 3, prompt: 4, output: 2},
	}}
	it, err := s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Admitted) != 2 || len(w.reqs) != 1 {
		t.Fatalf("admitted %d, queue %d; want 2 and 1", len(it.Admitted), len(w.reqs))
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() ([]int, map[int][]int) {
		s := New[req](Params{BatchTokens: 48, KVBlocks: 6, ChunkedPrefill: true})
		w := &queue{reqs: []req{
			{id: 1, prompt: 40, output: 20},
			{id: 2, prompt: 30, output: 25},
			{id: 3, prompt: 20, output: 30},
		}}
		tokens, doneOrder := drive(t, s, w, 1000)
		return doneOrder, tokens
	}
	d1, t1 := run()
	d2, t2 := run()
	if len(d1) != len(d2) {
		t.Fatalf("done orders differ: %v vs %v", d1, d2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("done orders differ: %v vs %v", d1, d2)
		}
	}
	for id, r1 := range t1 {
		r2 := t2[id]
		if len(r1) != len(r2) {
			t.Fatalf("req %d token rounds differ", id)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("req %d token rounds differ at %d: %d vs %d", id, i, r1[i], r2[i])
			}
		}
	}
}

func TestResetRecyclesCleanly(t *testing.T) {
	s := New[req](Params{BatchTokens: 32, KVBlocks: 8})
	w := &queue{reqs: []req{{id: 1, prompt: 10, output: 50}}}
	s.Plan(w.peek, w.pop)
	s.Finish(func(req, int) {}, func(req) {})
	s.Reset(Params{BatchTokens: 32, KVBlocks: 8})
	if !s.Idle() || s.KVFreeBlocks() != 8 {
		t.Fatalf("after Reset: idle=%v free=%d", s.Idle(), s.KVFreeBlocks())
	}
	for _, q := range s.freeSeqs {
		if q.Len() != 0 || len(q.Table()) != 0 {
			t.Fatalf("after Reset: a recycled sequence holds %d tokens in %v", q.Len(), q.Table())
		}
	}
	// A fresh workload on the recycled scheduler behaves like new.
	w2 := &queue{reqs: []req{{id: 9, prompt: 16, output: 2}}}
	tokens, done := drive(t, s, w2, 50)
	if len(tokens[9]) != 2 || len(done) != 1 {
		t.Fatalf("recycled scheduler: tokens=%v done=%v", tokens, done)
	}
}

// TestBlockConservationUnderChurn drives a tight pool hard and checks
// the KV invariant after every round: blocks held by running sequences
// plus free blocks always equals the pool size.
func TestBlockConservationUnderChurn(t *testing.T) {
	s := New[req](Params{BatchTokens: 24, KVBlocks: 5, ChunkedPrefill: true})
	w := &queue{}
	for i := 0; i < 12; i++ {
		w.reqs = append(w.reqs, req{id: i, prompt: 10 + (i*7)%40, output: 5 + (i*3)%25})
	}
	completed := 0
	for round := 0; round < 5000; round++ {
		it, err := s.Plan(w.peek, w.pop)
		if err != nil {
			t.Fatal(err)
		}
		if it.Empty() {
			break
		}
		s.Finish(func(req, int) {}, func(req) { completed++ })
		held := 0
		for _, q := range s.running {
			held += kvcache.BlocksForTokens(q.Len())
		}
		if held+s.kv.NumFreeBlocks() != 5 {
			t.Fatalf("round %d: %d held + %d free != 5", round, held, s.kv.NumFreeBlocks())
		}
	}
	if completed != 12 {
		t.Fatalf("completed %d of 12", completed)
	}
}

// TestSteadyCycleAllocatesNothing: once the scheduler's free-list holds
// recycled sequences whose KV tables kept their capacity, a batch that
// is admitted, decoded to completion and released (Reserve, Commit and
// Release on every round) allocates nothing.
func TestSteadyCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	s := New[req](Params{BatchTokens: 64, KVBlocks: 32})
	batch := []req{{id: 1, prompt: 20, output: 40}, {id: 2, prompt: 9, output: 33}, {id: 3, prompt: 30, output: 18}}
	w := &queue{}
	emit := func(req, int) {}
	done := func(req) {}
	cycle := func() {
		w.reqs = batch
		for {
			it, err := s.Plan(w.peek, w.pop)
			if err != nil {
				t.Fatal(err)
			}
			if it.Empty() {
				return
			}
			s.FinishRun(s.DecodeRun(), emit, done)
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady admit/decode/release cycle allocated %v times, want 0", n)
	}
}
