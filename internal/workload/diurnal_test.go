package workload

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// generateDiurnal drains NewDiurnal(cfg) into a slice.
func generateDiurnal(t *testing.T, cfg DiurnalConfig) []Request {
	t.Helper()
	src, err := NewDiurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func diurnalFixture() DiurnalConfig {
	return DiurnalConfig{
		Seed:        7,
		BaseRPS:     40,
		Amplitude:   0.6,
		Period:      60 * time.Second,
		BurstFactor: 4,
		MeanBurst:   2 * time.Second,
		MeanCalm:    10 * time.Second,
		Duration:    2 * time.Minute,
	}
}

// TestDiurnalArrivalsNondecreasing: thinning a homogeneous candidate
// stream must preserve arrival order and emission-order IDs.
func TestDiurnalArrivalsNondecreasing(t *testing.T) {
	reqs := generateDiurnal(t, diurnalFixture())
	if len(reqs) == 0 {
		t.Fatal("empty trace")
	}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatalf("arrival %d (%v) before %d (%v)", i, r.Arrival, i-1, reqs[i-1].Arrival)
		}
		if r.Arrival >= diurnalFixture().Duration {
			t.Fatalf("arrival %v past duration", r.Arrival)
		}
		if r.PromptTokens < 1 || r.OutputTokens < 1 {
			t.Fatalf("request %d has empty lengths: %+v", i, r)
		}
	}
}

// TestDiurnalStreamingMatchesGenerate: the streamed trace, drained
// into a slice, must not depend on scheduler parallelism.
func TestDiurnalStreamingMatchesGenerate(t *testing.T) {
	cfg := diurnalFixture()
	first := generateDiurnal(t, cfg)
	prev := runtime.GOMAXPROCS(1)
	again := generateDiurnal(t, cfg)
	runtime.GOMAXPROCS(prev)
	if len(again) != len(first) {
		t.Fatalf("%d requests under GOMAXPROCS=1, %d by default", len(again), len(first))
	}
	for i := range again {
		if again[i] != first[i] {
			t.Fatalf("request %d differs under GOMAXPROCS=1: %+v vs %+v", i, again[i], first[i])
		}
	}
}

// TestBurstySourceDeterministicAcrossGOMAXPROCS extends the same
// property check to the existing bursty generator.
func TestBurstySourceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := BurstConfig{
		Seed: 3, BaseRPS: 20, BurstRPS: 200,
		Period: 30 * time.Second, BurstLen: 3 * time.Second,
		Duration: time.Minute,
	}
	first, err := GenerateBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	second, err := GenerateBursty(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d differs under GOMAXPROCS=1", i)
		}
	}
}

// TestDiurnalSeedSensitivity: same seed reproduces, different seed
// diverges.
func TestDiurnalSeedSensitivity(t *testing.T) {
	cfg := diurnalFixture()
	a := generateDiurnal(t, cfg)
	b := generateDiurnal(t, cfg)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at request %d", i)
		}
	}
	cfg.Seed++
	c := generateDiurnal(t, cfg)
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// TestDiurnalEnvelopeShapesRate: with bursts disabled, the sinusoidal
// envelope must make peak-phase windows busier than trough-phase
// windows. Phase is chosen so the first quarter-period is the peak and
// the third is the trough.
func TestDiurnalEnvelopeShapesRate(t *testing.T) {
	period := 40 * time.Second
	cfg := DiurnalConfig{
		Seed:      11,
		BaseRPS:   50,
		Amplitude: 0.9,
		Period:    period,
		Phase:     math.Pi / 2, // cos envelope: peak at t=0, trough at t=Period/2
		Duration:  10 * period,
	}
	reqs := generateDiurnal(t, cfg)
	var peak, trough int
	for _, r := range reqs {
		pos := r.Arrival % period
		switch {
		case pos < period/4 || pos >= 3*period/4:
			peak++
		default:
			trough++
		}
	}
	// With amplitude 0.9 the halves integrate to BaseRPS·(1 ± 0.57); a
	// 1.5× separation leaves generous slack over 500 periods' worth of
	// arrivals.
	if float64(peak) < 1.5*float64(trough) {
		t.Fatalf("envelope too flat: peak-half %d vs trough-half %d arrivals", peak, trough)
	}
}

// TestDiurnalBurstsRaiseVolume: enabling the Markov burst state must
// add arrivals relative to the same envelope without bursts.
func TestDiurnalBurstsRaiseVolume(t *testing.T) {
	calm := diurnalFixture()
	calm.BurstFactor = 1
	calm.MeanBurst, calm.MeanCalm = 0, 0
	base := generateDiurnal(t, calm)
	bursty := generateDiurnal(t, diurnalFixture())
	if len(bursty) <= len(base) {
		t.Fatalf("bursts did not add volume: %d bursty vs %d calm", len(bursty), len(base))
	}
}

// TestDiurnalFleetZipfSkew: the fleet splitter must keep total volume
// near the configured base rate and order tenants by Zipf weight.
func TestDiurnalFleetZipfSkew(t *testing.T) {
	cfg := diurnalFixture()
	cfg.BurstFactor = 1
	cfg.MeanBurst, cfg.MeanCalm = 0, 0
	cfg.Duration = 5 * time.Minute
	srcs, err := DiurnalFleet(cfg, 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 4 {
		t.Fatalf("want 4 sources, got %d", len(srcs))
	}
	counts := make([]int, len(srcs))
	var total int
	for i, src := range srcs {
		reqs, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = len(reqs)
		total += len(reqs)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Fatalf("zipf ordering violated: counts %v", counts)
		}
	}
	want := cfg.BaseRPS * cfg.Duration.Seconds()
	if math.Abs(float64(total)-want) > 0.25*want {
		t.Fatalf("fleet volume %d far from configured %v", total, want)
	}
}

// TestDiurnalFleetDeterministic: a fleet drained twice must match
// request for request.
func TestDiurnalFleetDeterministic(t *testing.T) {
	drain := func() [][]Request {
		srcs, err := DiurnalFleet(diurnalFixture(), 3, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]Request, len(srcs))
		for i, src := range srcs {
			reqs, err := Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = reqs
		}
		return out
	}
	a, b := drain(), drain()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("tenant %d lengths differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("tenant %d request %d differs across reps", i, j)
			}
		}
	}
}

func TestDiurnalConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DiurnalConfig)
	}{
		{"zero rps", func(c *DiurnalConfig) { c.BaseRPS = 0 }},
		{"zero duration", func(c *DiurnalConfig) { c.Duration = 0 }},
		{"amplitude 1", func(c *DiurnalConfig) { c.Amplitude = 1 }},
		{"negative amplitude", func(c *DiurnalConfig) { c.Amplitude = -0.1 }},
		{"zero period", func(c *DiurnalConfig) { c.Period = 0 }},
		{"fractional burst factor", func(c *DiurnalConfig) { c.BurstFactor = 0.5 }},
		{"burst without sojourns", func(c *DiurnalConfig) { c.MeanBurst = 0 }},
	}
	for _, tc := range cases {
		cfg := diurnalFixture()
		tc.mut(&cfg)
		if _, err := NewDiurnal(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := DiurnalFleet(diurnalFixture(), 0, 1); err == nil {
		t.Error("fleet size 0 accepted")
	}
	if _, err := DiurnalFleet(diurnalFixture(), 2, -1); err == nil {
		t.Error("negative skew accepted")
	}
}
