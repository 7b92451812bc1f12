package obs

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// refAddExclusive is the map-and-sort.Slice AddExclusive the scratch
// version replaced, kept as the oracle FuzzAddExclusive compares
// against. It charges b exactly as AddExclusive must.
func refAddExclusive(b *PhaseBreakdown, intervals []Interval) {
	if len(intervals) == 0 {
		return
	}
	bounds := make([]time.Duration, 0, 2*len(intervals))
	for _, iv := range intervals {
		bounds = append(bounds, iv.Start, iv.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, t := range bounds[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	charged := make(map[string]bool, len(intervals))
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]
		owner := GapPhase
		var ownerIv *Interval
		for j := range intervals {
			iv := &intervals[j]
			if iv.Start > lo || hi > iv.End {
				continue
			}
			if ownerIv == nil ||
				iv.Start < ownerIv.Start ||
				(iv.Start == ownerIv.Start && (iv.End > ownerIv.End ||
					(iv.End == ownerIv.End && iv.Phase < ownerIv.Phase))) {
				owner = iv.Phase
				ownerIv = iv
			}
		}
		if _, ok := b.totals[owner]; !ok {
			b.order = append(b.order, owner)
		}
		b.totals[owner] += hi - lo
		if !charged[owner] {
			charged[owner] = true
			b.counts[owner]++
		}
	}
}

// decodeCalls turns fuzz bytes into a sequence of AddExclusive calls.
// Each 4-byte record is one interval: a phase from a four-name pool, a
// start and a length on a 16-tick grid (length 0 is a zero-length
// stage), and a flag whose low bit closes the current call. The small
// grid makes equal starts, equal extents under different phases,
// nesting, disjoint stages and gaps all common.
func decodeCalls(data []byte) [][]Interval {
	phases := [...]string{"fetch", "weights", "tokenizer", "restore"}
	var calls [][]Interval
	var cur []Interval
	for len(data) >= 4 {
		start := time.Duration(data[1]%16) * time.Millisecond
		cur = append(cur, Interval{
			Phase: phases[data[0]%4],
			Start: start,
			End:   start + time.Duration(data[2]%8)*time.Millisecond,
		})
		if data[3]&1 == 1 {
			calls = append(calls, cur)
			cur = nil
		}
		data = data[4:]
	}
	if len(cur) > 0 {
		calls = append(calls, cur)
	}
	return calls
}

// FuzzAddExclusive checks AddExclusive against refAddExclusive over
// random interval sets, several calls on one breakdown so the reused
// scratch is exercised: Phases, Duration, Count and Total must agree
// after every call.
func FuzzAddExclusive(f *testing.F) {
	rec := func(phase, start, length byte, last bool) []byte {
		var flag byte
		if last {
			flag = 1
		}
		return []byte{phase, start, length, flag}
	}
	cat := func(rs ...[]byte) []byte { return slices.Concat(rs...) }
	f.Add(cat(rec(0, 3, 0, true)))                                            // zero-length alone
	f.Add(cat(rec(0, 2, 4, false), rec(1, 2, 2, false), rec(2, 2, 4, true)))  // equal starts, equal extents
	f.Add(cat(rec(1, 0, 7, false), rec(2, 2, 3, false), rec(3, 3, 1, true)))  // nested
	f.Add(cat(rec(0, 0, 2, false), rec(1, 6, 2, false), rec(2, 13, 0, true))) // disjoint, gapped
	f.Add(cat(rec(3, 5, 2, true), rec(0, 1, 6, false), rec(3, 1, 6, true)))   // two calls
	f.Add(cat(rec(0, 0, 1, false), rec(1, 1, 1, false), rec(0, 2, 0, false))) // abutting
	f.Add(cat(rec(0, 0, 2, true), rec(0, 3, 2, true)))                        // one phase, two calls
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := NewPhaseBreakdown(), NewPhaseBreakdown()
		for ci, call := range decodeCalls(data) {
			got.AddExclusive(call)
			refAddExclusive(want, slices.Clone(call))
			if g, w := got.Phases(), want.Phases(); !slices.Equal(g, w) {
				t.Fatalf("call %d %v: Phases = %v, want %v", ci, call, g, w)
			}
			for _, p := range want.Phases() {
				if g, w := got.Duration(p), want.Duration(p); g != w {
					t.Fatalf("call %d %v: Duration(%s) = %v, want %v", ci, call, p, g, w)
				}
				if g, w := got.counts[p], want.counts[p]; g != w {
					t.Fatalf("call %d %v: count(%s) = %d, want %d", ci, call, p, g, w)
				}
			}
			if g, w := got.Total(), want.Total(); g != w {
				t.Fatalf("call %d %v: Total = %v, want %v", ci, call, g, w)
			}
		}
	})
}

func TestAddExclusiveRejectsInvertedInterval(t *testing.T) {
	b := NewPhaseBreakdown()
	defer func() {
		if recover() == nil {
			t.Fatal("inverted interval did not panic")
		}
		if len(b.Phases()) != 0 || b.Total() != 0 {
			t.Fatalf("inverted call charged %v (total %v)", b.Phases(), b.Total())
		}
	}()
	b.AddExclusive([]Interval{
		{Phase: "ok", Start: 0, End: 10 * time.Millisecond},
		{Phase: "bad", Start: 30 * time.Millisecond, End: 20 * time.Millisecond},
	})
}

// medusaColdStart is the interval set one Medusa launch hands
// AddExclusive: the artifact fetch, then the engine's stages with the
// tokenizer and graph restore overlapping the weight stream.
func medusaColdStart(at time.Duration) []Interval {
	ms := time.Millisecond
	return []Interval{
		{Phase: "artifact_fetch", Start: at, End: at + 40*ms},
		{Phase: "model_struct_init", Start: at + 40*ms, End: at + 891*ms},
		{Phase: "kv_cache_init", Start: at + 891*ms, End: at + 911*ms},
		{Phase: "model_weights_loading", Start: at + 911*ms, End: at + 1329*ms},
		{Phase: "tokenizer_loading", Start: at + 911*ms, End: at + 1121*ms},
		{Phase: "cuda_graph_capture", Start: at + 1121*ms, End: at + 1719*ms},
	}
}

// TestAddExclusiveAllocatesNothing: once the breakdown has seen a
// launch's phases, attributing another launch allocates nothing.
func TestAddExclusiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	b := NewPhaseBreakdown()
	ivs := medusaColdStart(0)
	b.AddExclusive(ivs)
	if n := testing.AllocsPerRun(100, func() { b.AddExclusive(ivs) }); n != 0 {
		t.Fatalf("AddExclusive allocated %v times per launch, want 0", n)
	}
}

func BenchmarkAddExclusive(b *testing.B) {
	pb := NewPhaseBreakdown()
	ivs := medusaColdStart(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pb.AddExclusive(ivs)
	}
}
