package sched

import (
	"slices"
	"testing"

	"github.com/medusa-repro/medusa/internal/kvcache"
)

// TestDecodeRunStopsAtBlockAndCompletion walks one sequence through two
// decode runs: the first ends where its KV block fills, the second at
// its completion.
func TestDecodeRunStopsAtBlockAndCompletion(t *testing.T) {
	s := newSched[req](Params{BatchTokens: 64, KVBlocks: 4}, 0)
	w := &queue{reqs: []req{{id: 1, prompt: 10, output: 20}}}
	if _, err := s.plan(w.peek, w.pop); err != nil {
		t.Fatal(err)
	}
	if k := s.DecodeRun(false); k != 1 {
		t.Fatalf("prefill round: DecodeRun = %d, want 1", k)
	}
	s.Finish(func(req) {}, func(req) { t.Fatal("early done") })

	// 10 prompt tokens plus this round's one: 5 more fit in the block.
	if _, err := s.plan(w.peek, w.pop); err != nil {
		t.Fatal(err)
	}
	if k := s.DecodeRun(false); k != 6 {
		t.Fatalf("first decode run: DecodeRun = %d, want 6", k)
	}
	q := s.running[0]
	s.FinishRun(6, func(req) {}, func(req) { t.Fatal("early done") })
	if emitted, held := q.emitted, q.Len(); emitted != 7 || s.KVFreeBlocks() != 3 || held != kvcache.TokensPerBlock {
		t.Fatalf("after the first run: emitted %d, %d free blocks, %d tokens held", emitted, s.KVFreeBlocks(), held)
	}

	// The next round opens a second block; the run then ends with the
	// sequence's 20th token.
	if _, err := s.plan(w.peek, w.pop); err != nil {
		t.Fatal(err)
	}
	if k := s.DecodeRun(false); k != 13 {
		t.Fatalf("second decode run: DecodeRun = %d, want 13", k)
	}
	done := false
	s.FinishRun(13, func(req) {}, func(req) { done = true })
	if emitted := q.emitted; emitted != 20 || !done || !s.Idle() || s.KVFreeBlocks() != 4 {
		t.Fatalf("after the second run: emitted %d, done %v, idle %v, %d free blocks", emitted, done, s.Idle(), s.KVFreeBlocks())
	}
}

// TestFinishRunBeyondDecodeRunPanics checks that FinishRun refuses a run
// longer than DecodeRun allowed.
func TestFinishRunBeyondDecodeRunPanics(t *testing.T) {
	s := newSched[req](Params{BatchTokens: 64, KVBlocks: 4}, 0)
	w := &queue{reqs: []req{{id: 1, prompt: 10, output: 20}}}
	s.plan(w.peek, w.pop)
	s.Finish(func(req) {}, func(req) {})
	s.plan(w.peek, w.pop)
	k := s.DecodeRun(false)
	defer func() {
		if recover() == nil {
			t.Fatalf("FinishRun(%d) after DecodeRun = %d did not panic", k+1, k)
		}
	}()
	s.FinishRun(k+1, func(req) {}, func(req) {})
}

// checkSameState requires two schedulers to hold the same sequences in
// the same states, with equal KV block tables and free-block counts.
func checkSameState(t *testing.T, round int, a, b *Scheduler[req]) {
	t.Helper()
	if a.KVFreeBlocks() != b.KVFreeBlocks() || len(a.running) != len(b.running) || a.preempted.Len() != b.preempted.Len() {
		t.Fatalf("round %d: free %d/%d, running %d/%d, preempted %d/%d", round,
			a.KVFreeBlocks(), b.KVFreeBlocks(), len(a.running), len(b.running), a.preempted.Len(), b.preempted.Len())
	}
	for i, qa := range a.running {
		qb := b.running[i]
		if qa.id != qb.id || qa.Data != qb.Data || qa.state != qb.state || qa.emitted != qb.emitted ||
			qa.filled != qb.filled || qa.target != qb.target {
			t.Fatalf("round %d: running[%d] differs: %+v vs %+v", round, i, *qa, *qb)
		}
		if qa.Len() != qb.Len() || !slices.Equal(qa.Table(), qb.Table()) {
			t.Fatalf("round %d: seq %d holds %d tokens in %v, per step %d tokens in %v", round, qa.id,
				qa.Len(), qa.Table(), qb.Len(), qb.Table())
		}
	}
}

// FuzzDecodeRunMatchesSteps drives two identical schedulers through the
// same arrivals, under the batched policy or, when whole is set, the
// whole-request one. Whenever the planned round starts a decode run
// (with the queue empty, or queued requests waiting on a full running
// set), one applies n of its rounds with FinishRun and the other plans
// and finishes them one at a time: the emitted counts, completions,
// free blocks and block tables must agree after every run. Each script
// byte is one round: its low two bits queue that many arrivals (two
// more bytes each: output and prompt length), the rest picks n (0 for
// the whole run). Once the script is spent, rounds queue nothing and
// run whole until both schedulers are idle.
func FuzzDecodeRunMatchesSteps(f *testing.F) {
	f.Add(uint8(6), uint8(48), uint8(0), true, false, []byte{0x02, 40, 20, 30, 25, 0x00, 0x00, 0x01, 20, 30, 0x80, 0x00})
	f.Add(uint8(4), uint8(16), uint8(2), false, false, []byte{0x03, 10, 5, 12, 30, 8, 16, 0x00, 0x40, 0x01, 60, 3, 0x00})
	f.Add(uint8(1), uint8(200), uint8(0), true, false, []byte{0x01, 3, 9, 0x00, 0x01, 7, 2, 0x08})
	f.Add(uint8(31), uint8(255), uint8(4), true, false, []byte{0x03, 200, 39, 100, 20, 50, 30, 0x03, 90, 9, 80, 8, 70, 7, 0x00, 0x30})
	f.Add(uint8(9), uint8(0), uint8(2), false, true, []byte{0x03, 30, 40, 12, 20, 7, 60, 0x00, 0x41, 25, 9, 0x02, 40, 70, 3, 5, 0x00})
	f.Fuzz(func(t *testing.T, blocks, budget, maxSeqs uint8, chunked, whole bool, script []byte) {
		p := Params{
			BatchTokens: 1 + int(budget), KVBlocks: 1 + int(blocks)%32, ChunkedPrefill: chunked,
		}
		if whole {
			p.BatchTokens = 0
		}
		a, b := newSched[req](p, int(maxSeqs)%5), newSched[req](p, int(maxSeqs)%5)
		qa, qb := &queue{}, &queue{}
		next := func() byte {
			if len(script) == 0 {
				return 0 // drain: no arrivals, longest runs
			}
			c := script[0]
			script = script[1:]
			return c
		}
		// A bounded workload keeps every input fast: at most maxReqs
		// requests of at most 128 prompt and 40 output tokens.
		const maxReqs = 16
		capTokens := p.KVBlocks * kvcache.TokensPerBlock
		id := 0
		for round := 0; round < 20000; round++ {
			op := next()
			for i := 0; i < int(op&3) && id < maxReqs; i++ {
				output := 1 + int(next())%min(40, capTokens-1)
				r := req{id: id, prompt: 1 + int(next())%min(128, capTokens-output), output: output}
				id++
				qa.reqs, qb.reqs = append(qa.reqs, r), append(qb.reqs, r)
			}
			itA, err := a.plan(qa.peek, qa.pop)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.plan(qb.peek, qb.pop); err != nil {
				t.Fatal(err)
			}
			if itA.Empty() {
				if len(script) == 0 && len(qa.reqs) == 0 {
					return
				}
				continue
			}
			decode := len(itA.Decode)
			k := a.DecodeRun(len(qa.reqs) > 0)
			n := k - int(op>>2)%k

			var firstA, firstB, doneA, doneB []int
			a.FinishRun(n, func(r req) { firstA = append(firstA, r.id) }, func(r req) { doneA = append(doneA, r.id) })
			b.Finish(func(r req) { firstB = append(firstB, r.id) }, func(r req) { doneB = append(doneB, r.id) })
			for j := 1; j < n; j++ {
				it, err := b.plan(qb.peek, qb.pop)
				if err != nil {
					t.Fatal(err)
				}
				if len(it.Chunks) > 0 || it.Preemptions > 0 || len(it.Decode) != decode {
					t.Fatalf("round %d step %d of a %d-round run: %d chunks, %d preemptions, %d decoding (run began with %d)",
						round, j+1, n, len(it.Chunks), it.Preemptions, len(it.Decode), decode)
				}
				b.Finish(func(r req) { firstB = append(firstB, r.id) }, func(r req) { doneB = append(doneB, r.id) })
			}
			if !slices.Equal(firstA, firstB) || !slices.Equal(doneA, doneB) {
				t.Fatalf("round %d, %d-round run: first tokens %v done %v, per step %v done %v", round, n, firstA, doneA, firstB, doneB)
			}
			checkSameState(t, round, a, b)
		}
		t.Fatal("schedulers did not drain")
	})
}

// TestWholeRequestPolicy walks the whole-request policy (BatchTokens 0)
// through a pool of four blocks: each admission reserves its prompt
// plus output, so the third request waits at the head of the queue
// until a completion frees its lifetime's blocks; nothing is ever
// preempted; an admitted request decodes in its admission round; and a
// decode run lasts until the smallest remaining output is emitted.
func TestWholeRequestPolicy(t *testing.T) {
	s := newSched[req](Params{KVBlocks: 4}, 0)
	w := &queue{reqs: []req{
		{id: 1, prompt: 20, output: 10}, // 30 tokens: 2 blocks
		{id: 2, prompt: 16, output: 16}, // 32 tokens: 2 blocks
		{id: 3, prompt: 10, output: 8},  // 18 tokens: 2 blocks
	}}
	handles := map[int]*Seq[req]{}
	emitted := func(id int) int { return handles[id].emitted }
	var firsts, done []int
	first := func(r req) { firsts = append(firsts, r.id) }
	finish := func(r req) { done = append(done, r.id) }
	plan := func(round int) *Iteration[req] {
		t.Helper()
		it, err := s.plan(w.peek, w.pop)
		if err != nil {
			t.Fatal(err)
		}
		if it.Preemptions > 0 {
			t.Fatalf("round %d preempted %d sequences", round, it.Preemptions)
		}
		for _, q := range it.Admitted {
			handles[q.Data.id] = q
			if !slices.Contains(it.Decode, q) {
				t.Fatalf("round %d: admitted request %d is not in the decode batch", round, q.Data.id)
			}
		}
		return it
	}

	it := plan(1)
	if len(it.Admitted) != 2 || len(it.Decode) != 2 || len(it.Chunks) != 2 || it.Chunks[1].Tokens != 16 {
		t.Fatalf("round 1: %d admitted, %d decoding, chunks %v", len(it.Admitted), len(it.Decode), it.Chunks)
	}
	if len(w.reqs) != 1 || s.KVFreeBlocks() != 0 {
		t.Fatalf("round 1: %d queued, %d free blocks; want request 3 waiting on an empty pool", len(w.reqs), s.KVFreeBlocks())
	}
	if k := s.DecodeRun(false); k != 1 {
		t.Fatalf("admission round: DecodeRun = %d, want 1", k)
	}
	s.FinishRun(1, first, finish)
	if !slices.Equal(firsts, []int{1, 2}) || emitted(1) != 1 || emitted(2) != 1 {
		t.Fatalf("admission round: first tokens of %v, want one each of 1 and 2", firsts)
	}

	it = plan(2)
	if len(it.Admitted) != 0 || len(it.Chunks) != 0 || len(it.Decode) != 2 || len(w.reqs) != 1 {
		t.Fatalf("round 2: %d admitted, %d chunks, %d decoding, %d queued", len(it.Admitted), len(it.Chunks), len(it.Decode), len(w.reqs))
	}
	if k := s.DecodeRun(true); k != 1 {
		t.Fatalf("queued request with room: DecodeRun = %d, want 1", k)
	}
	// Request 1 has 9 tokens left, request 2 has 15.
	if k := s.DecodeRun(false); k != 9 {
		t.Fatalf("decode run: DecodeRun = %d, want 9", k)
	}
	s.FinishRun(9, first, finish)
	if !slices.Equal(done, []int{1}) || emitted(2) != 10 || s.KVFreeBlocks() != 2 {
		t.Fatalf("after the run: done %v, request 2 emitted %d, %d free blocks", done, emitted(2), s.KVFreeBlocks())
	}

	it = plan(3)
	if len(it.Admitted) != 1 || it.Admitted[0].Data.id != 3 || len(it.Decode) != 2 || s.KVFreeBlocks() != 0 {
		t.Fatalf("round 3: admitted %d, %d decoding, %d free blocks; want request 3 admitted", len(it.Admitted), len(it.Decode), s.KVFreeBlocks())
	}
	s.FinishRun(s.DecodeRun(false), first, finish)
	plan(4)
	// Request 2 has 5 tokens left, request 3 has 7.
	if k := s.DecodeRun(false); k != 5 {
		t.Fatalf("second decode run: DecodeRun = %d, want 5", k)
	}
	s.FinishRun(5, first, finish)
	for round := 5; !s.Idle(); round++ {
		plan(round)
		s.FinishRun(s.DecodeRun(false), first, finish)
	}
	if !slices.Equal(done, []int{1, 2, 3}) || !slices.Equal(firsts, []int{1, 2, 3}) || emitted(3) != 8 || s.KVFreeBlocks() != 4 {
		t.Fatalf("drained: done %v, first tokens %v, request 3 emitted %d, %d free blocks", done, firsts, emitted(3), s.KVFreeBlocks())
	}
}

// TestFullBatchRunsWithQueue checks that a decode run over a full
// running set lasts past queued requests, under either policy: no
// round before the first completion can admit one.
func TestFullBatchRunsWithQueue(t *testing.T) {
	for _, p := range []Params{{KVBlocks: 16}, {BatchTokens: 64, KVBlocks: 16}} {
		s := newSched[req](p, 2)
		w := &queue{reqs: []req{{id: 1, prompt: 16, output: 6}, {id: 2, prompt: 16, output: 9}, {id: 3, prompt: 4, output: 2}}}
		s.plan(w.peek, w.pop)
		s.Finish(func(req) {}, func(req) {})
		s.plan(w.peek, w.pop)
		if !s.Full() || len(w.reqs) != 1 {
			t.Fatalf("%+v: full %v with %d queued", p, s.Full(), len(w.reqs))
		}
		if k := s.DecodeRun(true); k != 5 {
			t.Fatalf("%+v: DecodeRun with a queued request = %d, want 5", p, k)
		}
	}
}
