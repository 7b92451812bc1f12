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
	s := New[req](Params{BatchTokens: 64, KVBlocks: 4})
	w := &queue{reqs: []req{{id: 1, prompt: 10, output: 20}}}
	if _, err := s.Plan(w.peek, w.pop); err != nil {
		t.Fatal(err)
	}
	if k := s.DecodeRun(); k != 1 {
		t.Fatalf("prefill round: DecodeRun = %d, want 1", k)
	}
	s.Finish(func(req, int) {}, func(req) { t.Fatal("early done") })

	// 10 prompt tokens plus this round's one: 5 more fit in the block.
	if _, err := s.Plan(w.peek, w.pop); err != nil {
		t.Fatal(err)
	}
	if k := s.DecodeRun(); k != 6 {
		t.Fatalf("first decode run: DecodeRun = %d, want 6", k)
	}
	var emitted int
	s.FinishRun(6, func(_ req, n int) { emitted = n }, func(req) { t.Fatal("early done") })
	if held := s.running[0].Len(); emitted != 7 || s.KVFreeBlocks() != 3 || held != kvcache.TokensPerBlock {
		t.Fatalf("after the first run: emitted %d, %d free blocks, %d tokens held", emitted, s.KVFreeBlocks(), held)
	}

	// The next round opens a second block; the run then ends with the
	// sequence's 20th token.
	if _, err := s.Plan(w.peek, w.pop); err != nil {
		t.Fatal(err)
	}
	if k := s.DecodeRun(); k != 13 {
		t.Fatalf("second decode run: DecodeRun = %d, want 13", k)
	}
	done := false
	s.FinishRun(13, func(_ req, n int) { emitted = n }, func(req) { done = true })
	if emitted != 20 || !done || !s.Idle() || s.KVFreeBlocks() != 4 {
		t.Fatalf("after the second run: emitted %d, done %v, idle %v, %d free blocks", emitted, done, s.Idle(), s.KVFreeBlocks())
	}
}

// TestFinishRunBeyondDecodeRunPanics checks that FinishRun refuses a run
// longer than DecodeRun allowed.
func TestFinishRunBeyondDecodeRunPanics(t *testing.T) {
	s := New[req](Params{BatchTokens: 64, KVBlocks: 4})
	w := &queue{reqs: []req{{id: 1, prompt: 10, output: 20}}}
	s.Plan(w.peek, w.pop)
	s.Finish(func(req, int) {}, func(req) {})
	s.Plan(w.peek, w.pop)
	k := s.DecodeRun()
	defer func() {
		if recover() == nil {
			t.Fatalf("FinishRun(%d) after DecodeRun = %d did not panic", k+1, k)
		}
	}()
	s.FinishRun(k+1, func(req, int) {}, func(req) {})
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
// same arrivals. Whenever the queue is empty and the planned round
// starts a decode run, one applies n of its rounds with FinishRun and
// the other plans and finishes them one at a time: the emitted counts,
// completions, free blocks and block tables must agree after every run.
// Each script byte is one round: its low two bits queue that many
// arrivals (two more bytes each: output and prompt length), the rest
// picks n (0 for the whole run). Once the script is spent, rounds queue
// nothing and run whole until both schedulers are idle.
func FuzzDecodeRunMatchesSteps(f *testing.F) {
	f.Add(uint8(6), uint8(48), uint8(0), true, []byte{0x02, 40, 20, 30, 25, 0x00, 0x00, 0x01, 20, 30, 0x80, 0x00})
	f.Add(uint8(4), uint8(16), uint8(2), false, []byte{0x03, 10, 5, 12, 30, 8, 16, 0x00, 0x40, 0x01, 60, 3, 0x00})
	f.Add(uint8(1), uint8(200), uint8(0), true, []byte{0x01, 3, 9, 0x00, 0x01, 7, 2, 0x08})
	f.Add(uint8(31), uint8(255), uint8(4), true, []byte{0x03, 200, 39, 100, 20, 50, 30, 0x03, 90, 9, 80, 8, 70, 7, 0x00, 0x30})
	f.Fuzz(func(t *testing.T, blocks, budget, maxSeqs uint8, chunked bool, script []byte) {
		p := Params{
			BatchTokens: 1 + int(budget), KVBlocks: 1 + int(blocks)%32,
			MaxSeqs: int(maxSeqs) % 5, ChunkedPrefill: chunked,
		}
		a, b := New[req](p), New[req](p)
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
			itA, err := a.Plan(qa.peek, qa.pop)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Plan(qb.peek, qb.pop); err != nil {
				t.Fatal(err)
			}
			if itA.Empty() {
				if len(script) == 0 && len(qa.reqs) == 0 {
					return
				}
				continue
			}
			decode := len(itA.Decode)
			k := a.DecodeRun()
			if len(qa.reqs) > 0 {
				k = 1
			}
			n := k - int(op>>2)%k

			emitA, emitB := map[int]int{}, map[int]int{}
			var doneA, doneB []int
			a.FinishRun(n, func(r req, e int) { emitA[r.id] = e }, func(r req) { doneA = append(doneA, r.id) })
			b.Finish(func(r req, e int) { emitB[r.id] = e }, func(r req) { doneB = append(doneB, r.id) })
			for j := 1; j < n; j++ {
				it, err := b.Plan(qb.peek, qb.pop)
				if err != nil {
					t.Fatal(err)
				}
				if len(it.Chunks) > 0 || it.Preemptions > 0 || len(it.Decode) != decode {
					t.Fatalf("round %d step %d of a %d-round run: %d chunks, %d preemptions, %d decoding (run began with %d)",
						round, j+1, n, len(it.Chunks), it.Preemptions, len(it.Decode), decode)
				}
				b.Finish(func(r req, e int) { emitB[r.id] = e }, func(r req) { doneB = append(doneB, r.id) })
			}
			if len(emitA) != len(emitB) || !slices.Equal(doneA, doneB) {
				t.Fatalf("round %d, %d-round run: emitted %v done %v, per step %v done %v", round, n, emitA, doneA, emitB, doneB)
			}
			for r, e := range emitA {
				if emitB[r] != e {
					t.Fatalf("round %d, %d-round run: request %d emitted %d, per step %d", round, n, r, e, emitB[r])
				}
			}
			checkSameState(t, round, a, b)
		}
		t.Fatal("schedulers did not drain")
	})
}
