package workload

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestNonFiniteRatesRejected pins the validation of every rate,
// amplitude and burst-factor field: a non-finite value is an error
// naming the field, never an endless stream.
func TestNonFiniteRatesRejected(t *testing.T) {
	poisson := func(c *TraceConfig, v float64) { c.RPS = v }
	bursty := func(set func(*BurstConfig, float64)) func(float64) error {
		return func(v float64) error {
			cfg := BurstConfig{Seed: 1, BaseRPS: 2, BurstRPS: 20, Period: 10 * time.Second,
				BurstLen: time.Second, Duration: time.Minute}
			set(&cfg, v)
			_, err := NewBursty(cfg)
			return err
		}
	}
	diurnal := func(set func(*DiurnalConfig, float64)) func(float64) error {
		return func(v float64) error {
			cfg := diurnalFixture()
			set(&cfg, v)
			_, err := NewDiurnal(cfg)
			return err
		}
	}
	cases := []struct {
		field string
		build func(float64) error
	}{
		{"RPS", func(v float64) error {
			cfg := TraceConfig{Seed: 1, Duration: time.Second}
			poisson(&cfg, v)
			_, err := NewPoisson(cfg)
			return err
		}},
		{"BaseRPS", bursty(func(c *BurstConfig, v float64) { c.BaseRPS = v })},
		{"BurstRPS", bursty(func(c *BurstConfig, v float64) { c.BurstRPS = v })},
		{"diurnal BaseRPS", diurnal(func(c *DiurnalConfig, v float64) { c.BaseRPS = v })},
		{"Amplitude", diurnal(func(c *DiurnalConfig, v float64) { c.Amplitude = v })},
		{"BurstFactor", diurnal(func(c *DiurnalConfig, v float64) { c.BurstFactor = v })},
		{"Phase", diurnal(func(c *DiurnalConfig, v float64) { c.Phase = v })},
	}
	for _, tc := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			err := tc.build(v)
			if err == nil {
				t.Errorf("%s = %v accepted", tc.field, v)
			} else if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: error %q does not name the field", tc.field, v, err)
			}
		}
	}
	if _, err := NewPoisson(TraceConfig{Seed: 1, RPS: 2 * maxRate, Duration: time.Second}); err == nil {
		t.Error("rate above one request per nanosecond accepted")
	}
	if _, err := DiurnalFleet(diurnalFixture(), 3, math.NaN()); err == nil {
		t.Error("NaN fleet skew accepted")
	}
}

// drain pulls up to limit requests and fails unless the stream ends
// within them, with arrivals nondecreasing in [0, window) and IDs
// sequential.
func drain(t *testing.T, src Source, window time.Duration, limit int) []Request {
	t.Helper()
	var out []Request
	for len(out) <= limit {
		r, ok := src.Next()
		if !ok {
			if err := src.Err(); err != nil {
				t.Fatalf("stream failed: %v", err)
			}
			return out
		}
		if r.ID != len(out) {
			t.Fatalf("request %d has ID %d", len(out), r.ID)
		}
		if r.Arrival < 0 || r.Arrival >= window {
			t.Fatalf("request %d arrives at %v, outside [0, %v)", r.ID, r.Arrival, window)
		}
		if len(out) > 0 && r.Arrival < out[len(out)-1].Arrival {
			t.Fatalf("request %d arrives at %v, before %v", r.ID, r.Arrival, out[len(out)-1].Arrival)
		}
		out = append(out, r)
	}
	t.Fatalf("stream still going after %d requests", limit)
	return nil
}

// TestTinyRatesEndTheStream covers rates whose gaps overflow a
// time.Duration: the stream must end inside its window instead of
// stalling at time zero or wrapping to negative arrivals.
func TestTinyRatesEndTheStream(t *testing.T) {
	for _, rps := range []float64{1e-300, 1e-12, 5e-324} {
		for _, window := range []time.Duration{time.Second, time.Hour, math.MaxInt64} {
			src, err := NewPoisson(TraceConfig{Seed: 1, RPS: rps, Duration: window})
			if err != nil {
				t.Fatal(err)
			}
			drain(t, src, window, 10)
		}
	}
	cfg := diurnalFixture()
	cfg.BaseRPS = 1e-300
	src, err := NewDiurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, src, cfg.Duration, 10)
}

// TestLongSojournsEndTheChain covers burst-chain sojourns too long for
// a time.Duration: the chain must stop switching instead of wrapping
// its sojourn end negative.
func TestLongSojournsEndTheChain(t *testing.T) {
	cfg := diurnalFixture()
	cfg.MeanBurst, cfg.MeanCalm = math.MaxInt64/2, math.MaxInt64/2
	cfg.Duration = math.MaxInt64
	cfg.BaseRPS = 1e-9
	src, err := NewDiurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, src, cfg.Duration, 1000)
}

// TestNegativeLengthsRejected checks the length means and clamps.
func TestNegativeLengthsRejected(t *testing.T) {
	if _, err := NewPoisson(TraceConfig{Seed: 1, RPS: 1, Duration: time.Second, MaxPrompt: -1}); err == nil {
		t.Error("negative MaxPrompt accepted")
	}
	cfg := diurnalFixture()
	cfg.MeanOutput = -5
	if _, err := NewDiurnal(cfg); err == nil {
		t.Error("negative MeanOutput accepted")
	}
}

// fuzzMaxWork caps the candidate draws one fuzz input may cost; larger
// configs are only checked for validation.
const fuzzMaxWork = 1 << 15

// FuzzSourceConfigs builds Poisson, bursty and diurnal configs from
// fuzz inputs, non-finite, tiny and huge rates included. Every config
// must be rejected with an error or stream a finite trace: arrivals
// nondecreasing in [0, Duration), sequential IDs, lengths in [1, max].
// The harness drains at most a bound derived from the peak rate, so an
// endless stream fails the target instead of hanging it.
func FuzzSourceConfigs(f *testing.F) {
	const s = int64(time.Second)
	nan, posInf := math.NaN(), math.Inf(1)
	// kind: 0 Poisson, 1 bursty, 2 diurnal.
	f.Add(uint8(0), int64(1), nan, 0.0, 0.0, 0.0, 0.0, s, int64(0), int64(0), int64(0), int64(0), int16(0), int16(0))
	f.Add(uint8(0), int64(1), posInf, 0.0, 0.0, 0.0, 0.0, s, int64(0), int64(0), int64(0), int64(0), int16(0), int16(0))
	f.Add(uint8(0), int64(1), 1e-300, 0.0, 0.0, 0.0, 0.0, s, int64(0), int64(0), int64(0), int64(0), int16(0), int16(0))
	f.Add(uint8(0), int64(1), 1e-12, 0.0, 0.0, 0.0, 0.0, 100*s, int64(0), int64(0), int64(0), int64(0), int16(8), int16(16))
	f.Add(uint8(0), int64(7), 40.0, 0.0, 0.0, 0.0, 0.0, 30*s, int64(0), int64(0), int64(0), int64(0), int16(0), int16(0))
	f.Add(uint8(1), int64(1), nan, 600.0, 0.0, 0.0, 0.0, 60*s, 30*s, 5*s, int64(0), int64(0), int16(8), int16(0))
	f.Add(uint8(1), int64(1), 40.0, nan, 0.0, 0.0, 0.0, 60*s, 30*s, 5*s, int64(0), int64(0), int16(8), int16(0))
	f.Add(uint8(1), int64(1), 40.0, posInf, 0.0, 0.0, 0.0, 60*s, 30*s, 5*s, int64(0), int64(0), int16(8), int16(0))
	f.Add(uint8(1), int64(1), 4.0, 60.0, 0.0, 0.0, 0.0, 60*s, 30*s, 5*s, int64(0), int64(0), int16(8), int16(0))
	f.Add(uint8(2), int64(3), nan, 0.0, 0.5, 2.0, 0.0, 60*s, 20*s, int64(0), 5*s, 10*s, int16(0), int16(0))
	f.Add(uint8(2), int64(3), 20.0, 0.0, nan, 2.0, 0.0, 60*s, 20*s, int64(0), 5*s, 10*s, int16(0), int16(0))
	f.Add(uint8(2), int64(3), 20.0, 0.0, 0.5, nan, 0.0, 60*s, 20*s, int64(0), 5*s, 10*s, int16(0), int16(0))
	f.Add(uint8(2), int64(3), 20.0, 0.0, 0.5, posInf, 0.0, 60*s, 20*s, int64(0), 5*s, 10*s, int16(0), int16(0))
	f.Add(uint8(2), int64(3), 20.0, 0.0, 0.5, 3.0, 1.0, 60*s, 20*s, int64(0), 5*s, 10*s, int16(16), int16(32))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, rate, rate2, amp, factor, phase float64,
		dur, period, burstLen, meanBurst, meanCalm int64, meanLen, maxLen int16) {
		window := time.Duration(dur)
		maxPrompt, maxOutput := 2048, 1024
		var src Source
		var err error
		var peak float64 // the highest candidate rate the source draws at
		work := 0.0      // burst-chain switches, on top of the candidates
		switch kind % 3 {
		case 0:
			cfg := TraceConfig{Seed: seed, RPS: rate, Duration: window,
				MeanPrompt: int(meanLen), MaxPrompt: int(maxLen), MeanOutput: int(meanLen), MaxOutput: int(maxLen)}
			src, err = NewPoisson(cfg)
			peak = rate
			if maxLen > 0 {
				maxPrompt, maxOutput = int(maxLen), int(maxLen)
			}
		case 1:
			cfg := BurstConfig{Seed: seed, BaseRPS: rate, BurstRPS: rate2, Period: time.Duration(period),
				BurstLen: time.Duration(burstLen), Duration: window, MeanPrompt: int(meanLen), MeanOutput: int(meanLen)}
			src, err = NewBursty(cfg)
			peak = rate2
		default:
			cfg := DiurnalConfig{Seed: seed, BaseRPS: rate, Amplitude: amp, Period: time.Duration(period),
				Phase: phase, BurstFactor: factor, MeanBurst: time.Duration(meanBurst),
				MeanCalm: time.Duration(meanCalm), Duration: window,
				MeanPrompt: int(meanLen), MaxPrompt: int(maxLen), MeanOutput: int(meanLen), MaxOutput: int(maxLen)}
			src, err = NewDiurnal(cfg)
			if factor == 0 {
				factor = 1
			}
			peak = rate * (1 + amp) * factor
			if factor > 1 {
				shortest := min(meanBurst, meanCalm)
				work = 2 * window.Seconds() / time.Duration(shortest).Seconds()
			}
			if maxLen > 0 {
				maxPrompt, maxOutput = int(maxLen), int(maxLen)
			}
		}
		if err != nil {
			return
		}
		expected := peak * window.Seconds()
		if !(expected >= 0) || math.IsInf(expected, 0) {
			t.Fatalf("accepted a config with expected count %v", expected)
		}
		if expected+work > fuzzMaxWork {
			return
		}
		// Gaps truncate to whole nanoseconds. At the highest accepted
		// rate (a mean gap of 1 ns) that inflates the count by up to
		// e−1 ≈ 1.72×, the inverse of a unit exponential's mean floor.
		limit := int(2*expected + 10*math.Sqrt(2*expected) + 64)
		for _, r := range drain(t, src, window, limit) {
			if r.PromptTokens < 1 || r.PromptTokens > maxPrompt || r.OutputTokens < 1 || r.OutputTokens > maxOutput {
				t.Fatalf("request %d lengths %d/%d outside [1, %d]/[1, %d]", r.ID, r.PromptTokens, r.OutputTokens, maxPrompt, maxOutput)
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatal("source yielded past exhaustion")
		}
	})
}
