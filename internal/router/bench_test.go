package router

import "testing"

// diurnalSlate is a slate shaped like the fleet-diurnal workload's at
// a peak: sixteen ready instances of one deployment on the 4×8-GPU
// fleet, launched out of ID order, with every locality grade, spread
// KV headroom and predicted TTFTs, and score ties the ID breaks.
func diurnalSlate() []Candidate {
	grades := [...]float64{1, 0.9, 0.7, 0}
	cands := make([]Candidate, 16)
	for i := range cands {
		cands[i] = Candidate{
			ID:         31 - 2*i,
			QueueDepth: i % 4,
			KVHeadroom: float64(16-i%8) / 16,
			Locality:   grades[i%4],
			PredTTFT:   float64(i%3) * 0.05,
		}
	}
	return cands
}

func BenchmarkRankDiurnalSlate(b *testing.B) {
	cands := diurnalSlate()
	var r Ranker
	p := &Scored{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Rank(p, cands)
	}
}

// TestRankDiurnalSlateAllocatesNothing: a warm Ranker ranks the
// benchmark's slate without allocating.
func TestRankDiurnalSlateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cands := diurnalSlate()
	var r Ranker
	p := &Scored{}
	r.Rank(p, cands)
	if n := testing.AllocsPerRun(100, func() { r.Rank(p, cands) }); n != 0 {
		t.Fatalf("Ranker.Rank over a diurnal slate allocated %v times per call, want 0", n)
	}
}
