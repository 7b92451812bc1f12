package artifactcache

import (
	"testing"
	"time"
)

// TestEvictionTieBreaksOnKeyInsertedLater: score ties break on the
// smaller key for an entry created after an earlier eviction already
// scanned the resident set, so evictOne's key order must cover it.
func TestEvictionTieBreaksOnKeyInsertedLater(t *testing.T) {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"m": 8 * MiB, "z": 8 * MiB, "k": 4 * MiB, "c": 8 * MiB, "d": 4 * MiB})
	// No RAM tier: every decision below is the SSD tier's. Under the
	// cost-aware policy equal-size, once-fetched entries tie, and a
	// smaller newcomer outranks them.
	c := NewNodeCache("n0", testParams(0, 16*MiB, PolicyCostAware), reg)
	now := time.Duration(0)
	fetch := func(key string) {
		t.Helper()
		res, err := c.Fetch(now, key)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Ready + time.Second
	}
	resident := func(key string) bool {
		tier, ok := c.Locate(key, now)
		return ok && tier == TierSSD
	}
	fetch("m")
	fetch("z")
	fetch("k") // evicts m: m and z tie, m is the smaller key
	if resident("m") || !resident("z") || !resident("k") {
		t.Fatalf("first eviction: m=%v z=%v k=%v, want only m evicted", resident("m"), resident("z"), resident("k"))
	}
	c.Discard("k")
	fetch("c") // first seen now; fits beside z and ties with it
	fetch("d") // evicts c: c and z tie, c is the smaller key
	if resident("c") || !resident("z") || !resident("d") {
		t.Fatalf("second eviction: c=%v z=%v d=%v, want only c evicted", resident("c"), resident("z"), resident("d"))
	}
	if got := c.Stats().SSDEvictions; got != 2 {
		t.Fatalf("SSDEvictions = %d, want 2", got)
	}
}

// fetchPairCase is a node cache in a steady cycle whose every FetchPair
// of a template-factored artifact is served the same way: the template
// always from RAM, the delta from the named tier.
type fetchPairCase struct {
	name   string
	deltas []string // the deltas the cycle rotates through
	want   Tier     // the tier every delta fetch is served from
}

// fetchPairCases: RAM holds the template and one delta, SSD the
// template and two. Repeating one delta hits RAM; alternating two hits
// SSD; and rotating three misses to the registry and evicts from both
// tiers every time.
var fetchPairCases = []fetchPairCase{
	{"ram_hit", []string{"d1"}, TierRAM},
	{"ssd_hit", []string{"d1", "d2"}, TierSSD},
	{"registry_miss_evicts", []string{"d1", "d2", "d3"}, TierRemote},
}

// steadyFetchPair returns one FetchPair of the case's cycle, warmed up
// until every key exists and the cycle repeats.
func steadyFetchPair(tb testing.TB, fc fetchPairCase) func() FetchResult {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"t": 10 * MiB, "d1": 4 * MiB, "d2": 4 * MiB, "d3": 4 * MiB})
	c := NewNodeCache("n0", testParams(14*MiB, 18*MiB, PolicyLRU), reg)
	now, i := time.Duration(0), 0
	step := func() FetchResult {
		res, err := c.FetchPair(now, fc.deltas[i%len(fc.deltas)], "t")
		if err != nil {
			tb.Fatal(err)
		}
		now = res.Ready + time.Second
		i++
		return res
	}
	for j := 0; j < 2*len(fc.deltas); j++ {
		step()
	}
	if res := step(); res.Tier != fc.want {
		tb.Fatalf("%s: delta served from %v, want %v", fc.name, res.Tier, fc.want)
	}
	return step
}

// TestFetchPairAllocatesNothing: once every key has an entry, a
// FetchPair allocates nothing, whether it hits RAM, hits SSD, or
// misses to the registry and evicts.
func TestFetchPairAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, fc := range fetchPairCases {
		step := steadyFetchPair(t, fc)
		if n := testing.AllocsPerRun(100, func() { step() }); n != 0 {
			t.Errorf("%s: FetchPair allocated %v times, want 0", fc.name, n)
		}
	}
}

func BenchmarkFetchPair(b *testing.B) {
	for _, fc := range fetchPairCases {
		b.Run(fc.name, func(b *testing.B) {
			step := steadyFetchPair(b, fc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
