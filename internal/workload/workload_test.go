package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := TraceConfig{Seed: 1, RPS: 5, Duration: 30 * time.Second}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("traces differ for identical seeds")
		}
	}
}

func TestGenerateRate(t *testing.T) {
	reqs, err := Generate(TraceConfig{Seed: 2, RPS: 10, Duration: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(reqs)) / 120
	if rate < 8 || rate > 12 {
		t.Fatalf("realized rate = %.1f RPS, want ≈10", rate)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not ordered")
		}
	}
}

func TestGenerateLengthDistribution(t *testing.T) {
	reqs, err := Generate(TraceConfig{Seed: 3, RPS: 50, Duration: 200 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var sp, so float64
	for _, r := range reqs {
		if r.PromptTokens < 1 || r.PromptTokens > 2048 {
			t.Fatalf("prompt %d out of range", r.PromptTokens)
		}
		if r.OutputTokens < 1 || r.OutputTokens > 1024 {
			t.Fatalf("output %d out of range", r.OutputTokens)
		}
		sp += float64(r.PromptTokens)
		so += float64(r.OutputTokens)
	}
	mp := sp / float64(len(reqs))
	mo := so / float64(len(reqs))
	// Clamping trims the upper tail, so realized means sit a bit below
	// the configured ones.
	if math.Abs(mp-ShareGPTMeanPrompt) > 40 {
		t.Fatalf("mean prompt = %.0f, want ≈%d", mp, ShareGPTMeanPrompt)
	}
	if math.Abs(mo-ShareGPTMeanOutput) > 80 {
		t.Fatalf("mean output = %.0f, want ≈%d", mo, ShareGPTMeanOutput)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(TraceConfig{Seed: 1, RPS: 0, Duration: time.Second}); err == nil {
		t.Fatal("zero RPS accepted")
	}
	if _, err := Generate(TraceConfig{Seed: 1, RPS: 1, Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestGenerateBursty(t *testing.T) {
	cfg := BurstConfig{
		Seed: 4, BaseRPS: 2, BurstRPS: 20,
		Period: 30 * time.Second, BurstLen: 5 * time.Second,
		Duration: 120 * time.Second,
	}
	reqs, err := GenerateBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inBurst, outBurst := 0, 0
	for i, r := range reqs {
		if r.ID != i {
			t.Fatal("IDs not renumbered")
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatal("bursty trace unordered")
		}
		if r.Arrival%cfg.Period < cfg.BurstLen {
			inBurst++
		} else {
			outBurst++
		}
	}
	burstRate := float64(inBurst) / (4 * 5)  // four 5s bursts
	baseRate := float64(outBurst) / (4 * 25) // four 25s quiet spans
	if burstRate < 4*baseRate {
		t.Fatalf("burst rate %.1f not ≫ base rate %.1f", burstRate, baseRate)
	}
}

func TestGenerateBurstyValidation(t *testing.T) {
	if _, err := GenerateBursty(BurstConfig{BaseRPS: 5, BurstRPS: 1, Period: time.Second, BurstLen: time.Millisecond, Duration: time.Second}); err == nil {
		t.Fatal("burst below base accepted")
	}
	if _, err := GenerateBursty(BurstConfig{BaseRPS: 1, BurstRPS: 2, Period: time.Second, BurstLen: 2 * time.Second, Duration: time.Second}); err == nil {
		t.Fatal("burst longer than period accepted")
	}
}

// TestLengthDistMatchesInlineFormula checks that precomputing the
// log-normal location once per source draws exactly the lengths the
// per-draw formula does, from one seed.
func TestLengthDistMatchesInlineFormula(t *testing.T) {
	inline := func(rng *rand.Rand, mean, max int) int {
		mu := math.Log(float64(mean)) - lengthSigma*lengthSigma/2
		v := int(math.Round(math.Exp(rng.NormFloat64()*lengthSigma + mu)))
		if v < 1 {
			v = 1
		}
		if v > max {
			v = max
		}
		return v
	}
	for _, c := range []struct{ mean, max int }{{ShareGPTMeanPrompt, 2048}, {ShareGPTMeanOutput, 1024}, {8, 16}} {
		a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		dist := newLengthDist(c.mean, c.max)
		for i := 0; i < 10_000; i++ {
			if got, want := dist.draw(a), inline(b, c.mean, c.max); got != want {
				t.Fatalf("mean %d draw %d: got %d, want %d", c.mean, i, got, want)
			}
		}
	}
}
