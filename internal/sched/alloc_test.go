package sched

import (
	"math"
	"testing"

	"github.com/medusa-repro/medusa/internal/kvcache"
)

// arrival is a request that joins the caller's queue at a round.
type arrival struct {
	at int
	r  req
}

// batchCase is a steady workload for the Plan/FinishRun allocation
// gate: its arrivals replay every cycle through one scheduler.
type batchCase struct {
	name     string
	params   Params
	arrivals []arrival
	// meanBatch is the sequences per planned round the case is built
	// to run at; the gate checks it so the case keeps its shape.
	meanBatch float64
}

// batchCases: a trickle of short requests whose rounds average about
// 1.55 sequences, as in a batched diurnal fleet, and a queue deep
// enough to keep MaxSeqs sequences running.
func batchCases() []batchCase {
	var trickle, full []arrival
	for i := 0; i < 12; i++ {
		trickle = append(trickle, arrival{at: 19 * i / 2, r: req{id: i, prompt: 40 + 7*(i%3), output: 12 + 3*(i%4)}})
	}
	for i := 0; i < 32; i++ {
		full = append(full, arrival{r: req{id: i, prompt: 24 + 5*(i%4), output: 16}})
	}
	return []batchCase{
		{"mean_batch", Params{BatchTokens: 512, KVBlocks: 64}, trickle, 1.55},
		{"full_batch", Params{BatchTokens: 512, KVBlocks: 128, MaxSeqs: 8}, full, 8},
	}
}

// replay drives the case's arrivals through s until the scheduler
// drains, applying whole decode runs up to the next arrival, and
// returns the planned rounds and the sequences they carried.
func (bc batchCase) replay(s *Scheduler[req]) (rounds, seqs int) {
	pending := bc.arrivals
	round := 0
	peek := func() (int, int, bool) {
		if len(pending) == 0 || pending[0].at > round {
			return 0, 0, false
		}
		return pending[0].r.prompt, pending[0].r.output, true
	}
	pop := func() req {
		r := pending[0].r
		pending = pending[1:]
		return r
	}
	emit := func(req, int) {}
	done := func(req) {}
	for {
		it, err := s.Plan(peek, pop)
		if err != nil {
			panic(err)
		}
		if it.Empty() {
			if len(pending) == 0 {
				return rounds, seqs
			}
			round = pending[0].at
			continue
		}
		n := s.DecodeRun()
		if len(pending) > 0 {
			n = max(1, min(n, pending[0].at-round))
		}
		s.FinishRun(n, emit, done)
		rounds += n
		seqs += n * (len(it.Chunks) + len(it.Decode))
		round += n
	}
}

// TestAdmissionSizesBlockTable: an admitted sequence's block table is
// sized once for its prompt and output, so it never moves while the
// sequence prefills and decodes.
func TestAdmissionSizesBlockTable(t *testing.T) {
	const prompt, output = 40, 100
	s := New[req](Params{BatchTokens: 512, KVBlocks: 64})
	w := &queue{reqs: []req{{id: 1, prompt: prompt, output: output}}}
	it, err := s.Plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	q := it.Admitted[0]
	if got, want := cap(q.Table()), kvcache.BlocksForTokens(prompt+output); got != want {
		t.Fatalf("admitted table capacity = %d, want %d", got, want)
	}
	first := &q.Table()[0]
	for !it.Empty() {
		s.FinishRun(s.DecodeRun(), func(req, int) {}, func(req) {})
		if q.Len() > 0 && &q.Table()[0] != first {
			t.Fatalf("table moved at %d tokens", q.Len())
		}
		if it, err = s.Plan(w.peek, w.pop); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanFinishRunAllocatesNothing: once recycled sequences hold
// tables sized for their lifetimes, Plan/FinishRun allocate nothing,
// at a diurnal fleet's mean batch and at a full one.
func TestPlanFinishRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, bc := range batchCases() {
		s := New[req](bc.params)
		rounds, seqs := bc.replay(s)
		mean := float64(seqs) / float64(rounds)
		t.Logf("%s: %d rounds, %.2f sequences per round", bc.name, rounds, mean)
		if math.Abs(mean-bc.meanBatch) > 0.1 {
			t.Fatalf("%s: %.2f sequences per round, want about %.2f", bc.name, mean, bc.meanBatch)
		}
		if n := testing.AllocsPerRun(20, func() { bc.replay(s) }); n != 0 {
			t.Errorf("%s: a replay of %d rounds allocated %v times, want 0", bc.name, rounds, n)
		}
	}
}

func BenchmarkPlanFinishRun(b *testing.B) {
	for _, bc := range batchCases() {
		b.Run(bc.name, func(b *testing.B) {
			s := New[req](bc.params)
			rounds, _ := bc.replay(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.replay(s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}
