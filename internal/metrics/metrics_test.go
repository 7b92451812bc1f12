package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleOf(vals ...time.Duration) *Sample {
	var s Sample
	for _, v := range vals {
		s.Add(v)
	}
	return &s
}

func TestPercentileNearestRank(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		p    float64
		want time.Duration
	}{{10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleton(t *testing.T) {
	s := sampleOf(7 * time.Millisecond)
	if s.P99() != 7*time.Millisecond || s.P50() != 7*time.Millisecond {
		t.Fatal("singleton percentiles wrong")
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty percentile did not panic")
		}
	}()
	(&Sample{}).P99()
}

func TestPercentileRangePanics(t *testing.T) {
	s := sampleOf(1)
	for _, p := range []float64{0, -1, 101} {
		func() {
			defer func() { recover() }()
			s.Percentile(p)
			t.Errorf("Percentile(%v) did not panic", p)
		}()
	}
}

func TestMeanMax(t *testing.T) {
	s := sampleOf(2*time.Second, 4*time.Second)
	if s.Mean() != 3*time.Second {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Max() != 4*time.Second {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(90, 30*time.Second); got != 3 {
		t.Fatalf("Throughput = %v", got)
	}
	if Throughput(10, 0) != 0 {
		t.Fatal("Throughput over zero span")
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(2*time.Second, time.Second); got != 0.5 {
		t.Fatalf("Reduction = %v", got)
	}
	if Reduction(0, time.Second) != 0 {
		t.Fatal("Reduction with zero base")
	}
}

// Property: nearest-rank percentile matches a reference implementation
// on random samples, and is monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		vals := make([]time.Duration, n)
		for i := range vals {
			vals[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
			s.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		prev := time.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			rank := int(float64(len(vals))*p/100 + 0.9999999)
			if rank < 1 {
				rank = 1
			}
			want := vals[rank-1]
			got := s.Percentile(p)
			if got != want {
				return false
			}
			if got < prev {
				return false // monotonicity
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	s := sampleOf(100*time.Millisecond, 200*time.Millisecond, 900*time.Millisecond, 3*time.Second)
	if got := s.FractionBelow(time.Second); got != 0.75 {
		t.Fatalf("FractionBelow(1s) = %v, want 0.75", got)
	}
	if got := s.FractionBelow(50 * time.Millisecond); got != 0 {
		t.Fatalf("FractionBelow(50ms) = %v, want 0", got)
	}
	if got := s.FractionBelow(time.Minute); got != 1 {
		t.Fatalf("FractionBelow(1m) = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty FractionBelow did not panic")
		}
	}()
	(&Sample{}).FractionBelow(time.Second)
}

func TestHistogram(t *testing.T) {
	s := sampleOf(10*time.Millisecond, 15*time.Millisecond, 35*time.Millisecond)
	out := s.Histogram(10*time.Millisecond, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // buckets 0-10, 10-20, 20-30, 30-40
		t.Fatalf("histogram lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "2") || !strings.Contains(lines[3], "1") {
		t.Fatalf("histogram counts wrong:\n%s", out)
	}
	// Empty bucket draws nothing but still lists.
	if strings.ContainsRune(lines[2], '█') {
		t.Fatalf("empty bucket drew bars:\n%s", out)
	}
	if (&Sample{}).Histogram(time.Second, 10) != "" {
		t.Fatal("empty histogram not empty")
	}
	if s.Histogram(0, 10) != "" {
		t.Fatal("zero-bucket histogram not empty")
	}
}

// TestReservoirExactUnderCap pins the property every existing test and
// checked-in experiment relies on: a sample that never exceeds the
// retention bound behaves exactly like a fully-retained one.
func TestReservoirExactUnderCap(t *testing.T) {
	var s Sample
	for i := 0; i < DefaultReservoir; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if len(s.vals) != DefaultReservoir || s.Len() != DefaultReservoir {
		t.Fatalf("Retained=%d Len=%d, want %d each", len(s.vals), s.Len(), DefaultReservoir)
	}
	if got := s.Percentile(50); got != time.Duration(DefaultReservoir/2-1)*time.Millisecond {
		t.Fatalf("p50 = %v under cap, want exact order statistic", got)
	}
	if got := s.Max(); got != time.Duration(DefaultReservoir-1)*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
}

// TestReservoirBoundedAndDeterministic drives a sample past the cap and
// checks (a) retention stays bounded, (b) the exact aggregates stay
// exact, (c) two identical insertion orders produce identical reservoirs
// — the determinism the byte-identical-output guarantee rests on.
func TestReservoirBoundedAndDeterministic(t *testing.T) {
	const n = 3 * DefaultReservoir
	build := func() *Sample {
		var s Sample
		for i := 0; i < n; i++ {
			s.Add(time.Duration(i) * time.Microsecond)
		}
		return &s
	}
	a, b := build(), build()
	if len(a.vals) != DefaultReservoir {
		t.Fatalf("Retained = %d, want %d", len(a.vals), DefaultReservoir)
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	if a.Max() != time.Duration(n-1)*time.Microsecond {
		t.Fatalf("max lost: %v", a.Max())
	}
	if a.Mean() != b.Mean() || a.Percentile(99) != b.Percentile(99) || a.Percentile(50) != b.Percentile(50) {
		t.Fatal("identical insertion orders diverged")
	}
	sa, _ := a.Summary()
	sb, _ := b.Summary()
	if sa != sb {
		t.Fatalf("summaries diverged: %+v vs %+v", sa, sb)
	}
	// Mean is exact (streamed), independent of the reservoir.
	if want := time.Duration(n-1) * time.Microsecond / 2; sa.Mean != want {
		t.Fatalf("mean = %v, want %v", sa.Mean, want)
	}
}

// TestReservoirEstimatesQuantiles sanity-checks that beyond the cap the
// reservoir still estimates quantiles usefully: uniform data in
// [0, 10s) must put p50 and p99 within a loose band of truth.
func TestReservoirEstimatesQuantiles(t *testing.T) {
	var s Sample
	const n = 100000
	for i := 0; i < n; i++ {
		// Insert in a scrambled but deterministic order.
		v := (uint64(i) * 2654435761) % n
		s.Add(time.Duration(v) * 10 * time.Second / n)
	}
	p50 := s.Percentile(50)
	if p50 < 4*time.Second || p50 > 6*time.Second {
		t.Fatalf("p50 estimate %v far from 5s", p50)
	}
	p99 := s.Percentile(99)
	if p99 < 9*time.Second || p99 > 10*time.Second {
		t.Fatalf("p99 estimate %v far from 9.9s", p99)
	}
	if frac := s.FractionBelow(5 * time.Second); frac < 0.4 || frac > 0.6 {
		t.Fatalf("FractionBelow(5s) = %v far from 0.5", frac)
	}
}

// TestRetain opts a sample out of the bound.
func TestRetain(t *testing.T) {
	var s Sample
	s.Retain()
	const n = DefaultReservoir + 100
	for i := 0; i < n; i++ {
		s.Add(time.Duration(i))
	}
	if len(s.vals) != n {
		t.Fatalf("Retained = %d after Retain, want %d", len(s.vals), n)
	}
}

// TestAddAllMergesExactAggregates checks the streaming fields merge
// exactly and deterministically.
func TestAddAllMergesExactAggregates(t *testing.T) {
	a := sampleOf(time.Second, 3*time.Second)
	b := sampleOf(2*time.Second, 10*time.Second)
	var m Sample
	m.AddAll(a)
	m.AddAll(b)
	m.AddAll(nil)
	m.AddAll(&Sample{})
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Mean() != 4*time.Second {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if m.Max() != 10*time.Second {
		t.Fatalf("Max = %v", m.Max())
	}
	if m.Percentile(99) != 10*time.Second {
		t.Fatalf("p99 = %v", m.Percentile(99))
	}
}

func TestMeanCI(t *testing.T) {
	if mean, half := MeanCI(nil); mean != 0 || half != 0 {
		t.Fatalf("MeanCI(nil) = %v ± %v", mean, half)
	}
	if mean, half := MeanCI([]float64{7}); mean != 7 || half != 0 {
		t.Fatalf("MeanCI(single) = %v ± %v", mean, half)
	}
	mean, half := MeanCI([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Fatalf("mean = %v", mean)
	}
	// sd = sqrt(2.5), se = sd/sqrt(5), half = 1.96*se ≈ 1.386
	if half < 1.38 || half > 1.39 {
		t.Fatalf("half-width = %v", half)
	}
	if _, h := MeanCI([]float64{4, 4, 4}); h != 0 {
		t.Fatalf("identical values must give zero width, got %v", h)
	}
}
