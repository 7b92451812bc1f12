package router

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestLeastLoadedPrefersEmptiest: queue depth alone decides, ties go
// to the lowest instance id.
func TestLeastLoadedPrefersEmptiest(t *testing.T) {
	p := &LeastLoaded{}
	cands := []Candidate{
		{ID: 5, QueueDepth: 3},
		{ID: 2, QueueDepth: 1},
		{ID: 9, QueueDepth: 1},
	}
	if got := Pick(p, cands); got != 1 {
		t.Fatalf("Pick = %d (id %d), want index 1 (id 2)", got, cands[got].ID)
	}
}

// TestScoredWeighsAllSignals: with equal queues, the composite policy
// must prefer the warm, roomy, fast candidate.
func TestScoredWeighsAllSignals(t *testing.T) {
	p := &Scored{}
	cold := Candidate{ID: 0, QueueDepth: 2, KVHeadroom: 0.1, Locality: 0, PredTTFT: 0.5}
	warm := Candidate{ID: 1, QueueDepth: 2, KVHeadroom: 0.9, Locality: 1, PredTTFT: 0.1}
	if p.Score(warm) <= p.Score(cold) {
		t.Fatalf("warm candidate scored %v, cold %v", p.Score(warm), p.Score(cold))
	}
	// Queue depth dominates the soft signals: a deep queue loses to an
	// empty one even with perfect locality.
	deep := Candidate{ID: 0, QueueDepth: 5, KVHeadroom: 1, Locality: 1}
	empty := Candidate{ID: 1}
	if p.Score(deep) >= p.Score(empty) {
		t.Fatalf("deep queue scored %v, empty %v", p.Score(deep), p.Score(empty))
	}
}

// TestPickTieBreaksByLowestID pins the deterministic contract: exact
// score ties resolve to the lowest instance id regardless of slice
// order.
func TestPickTieBreaksByLowestID(t *testing.T) {
	p := &LeastLoaded{}
	cands := []Candidate{
		{ID: 7, QueueDepth: 2},
		{ID: 3, QueueDepth: 2},
		{ID: 11, QueueDepth: 2},
	}
	if got := Pick(p, cands); cands[got].ID != 3 {
		t.Fatalf("tie went to id %d, want 3", cands[got].ID)
	}
	if got := Pick(p, nil); got != -1 {
		t.Fatalf("empty slate picked %d", got)
	}
}

// TestRankOrdersDeterministically: full ordering is descending score
// with ascending-id tie-breaks, stable across input permutations.
func TestRankOrdersDeterministically(t *testing.T) {
	p := &LeastLoaded{}
	cands := []Candidate{
		{ID: 4, QueueDepth: 1},
		{ID: 1, QueueDepth: 0},
		{ID: 2, QueueDepth: 1},
		{ID: 0, QueueDepth: 3},
	}
	order := Rank(p, cands)
	wantIDs := []int{1, 2, 4, 0}
	if len(order) != len(wantIDs) {
		t.Fatalf("rank length %d, want %d", len(order), len(wantIDs))
	}
	for i, idx := range order {
		if cands[idx].ID != wantIDs[i] {
			t.Fatalf("rank position %d is id %d, want %d", i, cands[idx].ID, wantIDs[i])
		}
	}
	// Permuting the input must not change the ranked id sequence.
	perm := []Candidate{cands[3], cands[2], cands[1], cands[0]}
	order2 := Rank(p, perm)
	for i, idx := range order2 {
		if perm[idx].ID != wantIDs[i] {
			t.Fatalf("permuted rank position %d is id %d, want %d", i, perm[idx].ID, wantIDs[i])
		}
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"", "fifo"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p != nil {
			t.Fatalf("Parse(%q) = %v, want nil (legacy dispatch)", name, p)
		}
	}
	for _, name := range []string{"leastloaded", "score"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Parse(%q) = %q", name, p.Name())
		}
	}
	if _, err := Parse("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// sortRank is the sort.Slice ranking Ranker replaced, kept as its
// oracle.
func sortRank(p Policy, cands []Candidate) []int {
	order := make([]int, len(cands))
	scores := make([]float64, len(cands))
	for i, c := range cands {
		order[i] = i
		scores[i] = p.Score(c)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return cands[ia].ID < cands[ib].ID
	})
	return order
}

// TestRankerMatchesSortSlice: one reused Ranker orders random slates,
// ties included, exactly like the sort.Slice ranking, and a warm
// Ranker allocates nothing.
func TestRankerMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Ranker
	for _, p := range []Policy{&LeastLoaded{}, &Scored{}} {
		for trial := 0; trial < 500; trial++ {
			cands := make([]Candidate, rng.Intn(12))
			for i, id := range rng.Perm(len(cands)) {
				cands[i] = Candidate{ID: id, QueueDepth: rng.Intn(4),
					KVHeadroom: float64(rng.Intn(3)) / 2, Locality: float64(rng.Intn(2)), PredTTFT: float64(rng.Intn(3)) / 4}
			}
			if got, want := r.Rank(p, cands), sortRank(p, cands); !slices.Equal(got, want) {
				t.Fatalf("%s: Ranker %v, sort.Slice %v for %+v", p.Name(), got, want, cands)
			}
		}
	}
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cands := make([]Candidate, 16)
	for i := range cands {
		cands[i] = Candidate{ID: 15 - i, QueueDepth: i % 3, KVHeadroom: float64(i%4) / 4}
	}
	p := &Scored{}
	if n := testing.AllocsPerRun(100, func() { r.Rank(p, cands) }); n != 0 {
		t.Fatalf("warm Ranker.Rank allocated %v times per call, want 0", n)
	}
}
