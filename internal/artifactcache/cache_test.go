package artifactcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/storage"
)

func testParams(ram, ssd uint64, kind PolicyKind) Params {
	p := DefaultParams()
	p.RAMBytes = ram
	p.SSDBytes = ssd
	p.Policy = kind
	return p
}

func testRegistry(sizes map[string]uint64) *Registry {
	r := NewRegistry(DefaultNetwork())
	for name, sz := range sizes {
		r.RegisterSized(name, sz)
	}
	return r
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PolicyKind
	}{
		{"lru", PolicyLRU}, {"lfu", PolicyLFU},
		{"costaware", PolicyCostAware}, {"cost-aware", PolicyCostAware}, {"gdsf", PolicyCostAware},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if rt, err := ParsePolicy(got.String()); tc.in == got.String() && (err != nil || rt != got) {
			t.Errorf("round trip %v failed", got)
		}
	}
	if _, err := ParsePolicy("arc"); err == nil {
		t.Error("ParsePolicy(arc) should fail")
	}
}

func TestFetchTiers(t *testing.T) {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"a": 50 * MiB})
	c := NewNodeCache("n0", testParams(100*MiB, 200*MiB, PolicyLRU), reg)

	// Cold: remote miss, charged at network speed.
	res, err := c.Fetch(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierRemote || res.Coalesced || res.Bytes != 50*MiB {
		t.Fatalf("cold fetch = %+v, want remote miss of 50 MiB", res)
	}
	wantReady := reg.FetchDuration(50 * MiB)
	if res.Ready != wantReady {
		t.Fatalf("cold Ready = %v, want %v", res.Ready, wantReady)
	}

	// Warm: RAM hit (write-through on miss), RAM-speed latency.
	later := res.Ready + time.Second
	res2, err := c.Fetch(later, "a")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tier != TierRAM {
		t.Fatalf("warm fetch tier = %v, want ram", res2.Tier)
	}
	if got, want := res2.Ready-later, c.params.RAM.ReadDuration(50*MiB); got != want {
		t.Fatalf("RAM hit latency = %v, want %v", got, want)
	}

	st := c.Stats()
	if st.RAMHits != 1 || st.Misses != 1 || st.SSDHits != 0 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesFetched != 50*MiB {
		t.Fatalf("BytesFetched = %d", st.BytesFetched)
	}
	if _, err := c.Fetch(later, "missing"); err == nil {
		t.Fatal("Fetch of unregistered artifact should fail")
	}
}

func TestFetchCoalesces(t *testing.T) {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"a": 64 * MiB})
	c := NewNodeCache("n0", testParams(256*MiB, 512*MiB, PolicyLRU), reg)

	first, err := c.Fetch(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	// A second cold start for the same model lands mid-transfer: it must
	// piggyback on the in-flight fetch, charging no new bytes.
	second, err := c.Fetch(first.Ready/2, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Coalesced || second.Tier != TierRemote {
		t.Fatalf("overlapping fetch = %+v, want coalesced remote", second)
	}
	if second.Ready != first.Ready {
		t.Fatalf("coalesced Ready = %v, want the transfer's %v", second.Ready, first.Ready)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.BytesFetched != 64*MiB {
		t.Fatalf("stats = %+v, want one transfer one coalesce", st)
	}

	// After the transfer lands, the same key is a plain RAM hit.
	res, err := c.Fetch(first.Ready+time.Millisecond, "a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierRAM || res.Coalesced {
		t.Fatalf("post-landing fetch = %+v, want ram hit", res)
	}
}

func TestEvictionDemotesToSSD(t *testing.T) {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"a": 60 * MiB, "b": 60 * MiB})
	c := NewNodeCache("n0", testParams(100*MiB, 400*MiB, PolicyLRU), reg)

	now := time.Duration(0)
	fetch := func(key string) FetchResult {
		t.Helper()
		res, err := c.Fetch(now, key)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Ready + time.Second
		return res
	}

	fetch("a")
	fetch("b") // RAM holds only one 60 MiB artifact: a is evicted from RAM, stays on SSD.

	if tier, ok := c.Locate("a", now); !ok || tier != TierSSD {
		t.Fatalf("Locate(a) = %v, %v; want ssd", tier, ok)
	}
	if tier, ok := c.Locate("b", now); !ok || tier != TierRAM {
		t.Fatalf("Locate(b) = %v, %v; want ram", tier, ok)
	}

	res := fetch("a")
	if res.Tier != TierSSD {
		t.Fatalf("refetch of demoted artifact = %+v, want ssd hit", res)
	}
	st := c.Stats()
	if st.Misses != 2 || st.SSDHits != 1 || st.RAMEvictions == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SSDEvictions != 0 {
		t.Fatalf("SSD should hold both artifacts, got %d evictions", st.SSDEvictions)
	}
}

// TestCostAwareRetainsValuable pins the policy difference the bench
// relies on: under LRU a large cheap-to-refetch artifact pushes out a
// small, popular one; the cost-aware policy keeps the popular one.
func TestCostAwareRetainsValuable(t *testing.T) {
	const MiB = 1 << 20
	sizes := map[string]uint64{"hot": 40 * MiB, "cold1": 90 * MiB, "cold2": 90 * MiB}
	run := func(kind PolicyKind) (Tier, bool) {
		reg := testRegistry(sizes)
		c := NewNodeCache("n0", testParams(128*MiB, 128*MiB, kind), reg)
		now := time.Duration(0)
		fetch := func(key string) {
			t.Helper()
			res, err := c.Fetch(now, key)
			if err != nil {
				t.Fatal(err)
			}
			now = res.Ready + time.Second
		}
		// Make "hot" popular, then stream two one-shot large artifacts
		// through the 128 MiB tiers.
		for i := 0; i < 5; i++ {
			fetch("hot")
		}
		fetch("cold1")
		fetch("cold2")
		return c.Locate("hot", now)
	}

	if tier, ok := run(PolicyLRU); ok {
		t.Fatalf("LRU kept hot artifact in %v; expected the scan to flush it", tier)
	}
	if _, ok := run(PolicyCostAware); !ok {
		t.Fatal("cost-aware policy evicted the popular artifact during the scan")
	}
}

// TestConservation is the request-accounting invariant: every Fetch
// call is exactly one of a RAM hit, an SSD hit, a charged miss, or a
// coalesced in-flight join.
func TestConservation(t *testing.T) {
	const MiB = 1 << 20
	sizes := make(map[string]uint64)
	keys := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("m%02d", i)
		keys = append(keys, k)
		sizes[k] = uint64(10+7*i) * MiB
	}
	for _, kind := range PolicyKinds() {
		rng := rand.New(rand.NewSource(99))
		reg := testRegistry(sizes)
		c := NewNodeCache("n0", testParams(120*MiB, 300*MiB, kind), reg)
		const n = 400
		now := time.Duration(0)
		for i := 0; i < n; i++ {
			// Advance by a jittered sub-transfer step so some fetches
			// overlap in-flight transfers and coalesce.
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			if _, err := c.Fetch(now, keys[rng.Intn(len(keys))]); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats()
		if st.Requests() != n {
			t.Errorf("%v: hits(%d+%d) + misses(%d) + coalesced(%d) = %d, want %d",
				kind, st.RAMHits, st.SSDHits, st.Misses, st.Coalesced, st.Requests(), n)
		}
		if st.Coalesced == 0 {
			t.Errorf("%v: workload produced no coalesced fetches; test is not exercising dedup", kind)
		}
	}
}

// TestDeterministicAcrossRuns replays the same seeded workload twice
// and demands identical stats and identical traced spans.
func TestDeterministicAcrossRuns(t *testing.T) {
	const MiB = 1 << 20
	sizes := map[string]uint64{"a": 30 * MiB, "b": 45 * MiB, "c": 80 * MiB, "d": 25 * MiB}
	for _, kind := range PolicyKinds() {
		run := func() (Stats, []obs.SpanData) {
			reg := testRegistry(sizes)
			c := NewNodeCache("n0", testParams(64*MiB, 128*MiB, kind), reg)
			tr := obs.NewTracer()
			c.SetObs(tr, obs.NewRegistry())
			rng := rand.New(rand.NewSource(5))
			keys := []string{"a", "b", "c", "d"}
			now := time.Duration(0)
			for i := 0; i < 200; i++ {
				now += time.Duration(rng.Intn(30)) * time.Millisecond
				if _, err := c.Fetch(now, keys[rng.Intn(len(keys))]); err != nil {
					t.Fatal(err)
				}
			}
			return c.Stats(), tr.Spans()
		}
		s1, sp1 := run()
		s2, sp2 := run()
		if s1 != s2 {
			t.Errorf("%v: stats differ across identical runs: %+v vs %+v", kind, s1, s2)
		}
		if !reflect.DeepEqual(sp1, sp2) {
			t.Errorf("%v: traced spans differ across identical runs", kind)
		}
	}
}

func TestPreload(t *testing.T) {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"a": 50 * MiB})
	c := NewNodeCache("n0", testParams(100*MiB, 200*MiB, PolicyLRU), reg)
	if err := c.Preload("a"); err != nil {
		t.Fatal(err)
	}
	if tier, ok := c.Locate("a", 0); !ok || tier != TierSSD {
		t.Fatalf("Locate after Preload = %v, %v; want ssd", tier, ok)
	}
	res, err := c.Fetch(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierSSD {
		t.Fatalf("first fetch after preload = %+v, want ssd hit", res)
	}
	if err := c.Preload("nope"); err == nil {
		t.Fatal("Preload of unregistered artifact should fail")
	}
}

func TestObsCounters(t *testing.T) {
	const MiB = 1 << 20
	reg := testRegistry(map[string]uint64{"a": 10 * MiB})
	c := NewNodeCache("n0", testParams(64*MiB, 128*MiB, PolicyLRU), reg)
	tr := obs.NewTracer()
	mreg := obs.NewRegistry()
	c.SetObs(tr, mreg)

	r1, _ := c.Fetch(0, "a")
	c.Fetch(r1.Ready/2, "a")           //nolint:errcheck // counters under test
	c.Fetch(r1.Ready+time.Second, "a") //nolint:errcheck

	if got := mreg.Counter("cache_misses").Value(); got != 1 {
		t.Errorf("cache_misses = %d", got)
	}
	if got := mreg.Counter("cache_coalesced").Value(); got != 1 {
		t.Errorf("cache_coalesced = %d", got)
	}
	if got := mreg.Counter("cache_ram_hits").Value(); got != 1 {
		t.Errorf("cache_ram_hits = %d", got)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d fetch spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Track != "storage/cache/n0" || sp.Phase != "artifact_fetch" {
			t.Errorf("span %+v on wrong track/phase", sp)
		}
	}
}

// TestStorageArrayLatencies sanity-checks the tier ordering the whole
// design rests on: RAM < SSD < network for the same payload.
func TestStorageArrayLatencies(t *testing.T) {
	p := DefaultParams()
	net := DefaultNetwork()
	const n = 256 << 20
	ram, ssd, remote := p.RAM.ReadDuration(n), p.SSD.ReadDuration(n), (storage.Array{Bandwidth: net.Bandwidth, Latency: net.Latency}).ReadDuration(n)
	if !(ram < ssd && ssd < remote) {
		t.Fatalf("tier latencies out of order: ram=%v ssd=%v net=%v", ram, ssd, remote)
	}
}
