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
	maxSeqs  int
	arrivals []arrival
	// seqs are the arrivals' sequence handles and it the rounds' plan,
	// reused by every replay.
	seqs []Seq[req]
	it   *Iteration[req]
	// meanBatch is the sequences per planned round the case is built
	// to run at; the gate checks it so the case keeps its shape.
	meanBatch float64
}

// batchCases: a trickle of short requests whose rounds average about
// 1.55 sequences, as in a batched diurnal fleet, and a queue deep
// enough to keep the capped running set full, under either policy.
func batchCases() []batchCase {
	var trickle, full []arrival
	for i := 0; i < 12; i++ {
		trickle = append(trickle, arrival{at: 19 * i / 2, r: req{id: i, prompt: 40 + 7*(i%3), output: 12 + 3*(i%4)}})
	}
	for i := 0; i < 32; i++ {
		full = append(full, arrival{r: req{id: i, prompt: 24 + 5*(i%4), output: 16}})
	}
	cases := []batchCase{
		{name: "mean_batch", params: Params{BatchTokens: 512, KVBlocks: 64}, arrivals: trickle, meanBatch: 1.55},
		{name: "full_batch", params: Params{BatchTokens: 512, KVBlocks: 128}, maxSeqs: 8, arrivals: full, meanBatch: 8},
		// A whole-request admission counts twice: its prompt's chunk and
		// its place in the decode batch.
		{name: "whole_request", params: Params{KVBlocks: 128}, maxSeqs: 8, arrivals: full, meanBatch: 8.5},
	}
	for i := range cases {
		cases[i].seqs = make([]Seq[req], len(cases[i].arrivals))
		cases[i].it = new(Iteration[req])
	}
	return cases
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
	pop := func() *Seq[req] {
		q := &bc.seqs[len(bc.arrivals)-len(pending)]
		q.Data = pending[0].r
		pending = pending[1:]
		return q
	}
	emit := func(req) {}
	done := func(req) {}
	it := bc.it
	for {
		if err := s.Plan(it, peek, pop); err != nil {
			panic(err)
		}
		if it.Empty() {
			if len(pending) == 0 {
				return rounds, seqs
			}
			round = pending[0].at
			continue
		}
		n := s.DecodeRun(false)
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
	s := newSched[req](Params{BatchTokens: 512, KVBlocks: 64}, 0)
	w := &queue{reqs: []req{{id: 1, prompt: prompt, output: output}}}
	it, err := s.plan(w.peek, w.pop)
	if err != nil {
		t.Fatal(err)
	}
	q := it.Admitted[0]
	if got, want := cap(q.Table()), kvcache.BlocksForTokens(prompt+output); got != want {
		t.Fatalf("admitted table capacity = %d, want %d", got, want)
	}
	first := &q.Table()[0]
	for !it.Empty() {
		s.FinishRun(s.DecodeRun(false), func(req) {}, func(req) {})
		if q.Len() > 0 && &q.Table()[0] != first {
			t.Fatalf("table moved at %d tokens", q.Len())
		}
		if it, err = s.plan(w.peek, w.pop); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanFinishRunAllocatesNothing: once reused sequence handles hold
// tables sized for their lifetimes, Plan/FinishRun allocate nothing,
// at a diurnal fleet's mean batch and at a full one, under either
// policy.
func TestPlanFinishRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, bc := range batchCases() {
		s := newSched[req](bc.params, bc.maxSeqs)
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
			s := newSched[req](bc.params, bc.maxSeqs)
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
