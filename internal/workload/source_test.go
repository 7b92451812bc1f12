package workload

import (
	"testing"
	"time"
)

// TestPoissonSourceMatchesGenerate pins the contract the streaming
// scale path rests on: pulling a Poisson source yields exactly the
// trace Generate materializes at the same config.
func TestPoissonSourceMatchesGenerate(t *testing.T) {
	cfg := TraceConfig{Seed: 11, RPS: 40, Duration: 30 * time.Second}
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPoisson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d requests, generated %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: streamed %+v, generated %+v", i, got[i], want[i])
		}
	}
	// Exhausted source stays exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("source yielded past exhaustion")
	}
}

func TestBurstySourceMatchesGenerateBursty(t *testing.T) {
	cfg := BurstConfig{
		Seed: 5, BaseRPS: 10, BurstRPS: 80,
		Period: 10 * time.Second, BurstLen: 2 * time.Second,
		Duration: 60 * time.Second,
	}
	want, err := GenerateBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d requests, generated %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: streamed %+v, generated %+v", i, got[i], want[i])
		}
	}
}

// referenceBursty builds a bursty trace the way the bursty source was
// first written, from the public API alone: drain a Poisson stream at
// the extra (burst minus base) rate, keep the requests inside a burst
// window, and merge them with the base stream, ties to the base stream,
// renumbering in merged order.
func referenceBursty(t *testing.T, cfg BurstConfig) []Request {
	t.Helper()
	base, err := Generate(TraceConfig{
		Seed: cfg.Seed, RPS: cfg.BaseRPS, Duration: cfg.Duration,
		MeanPrompt: cfg.MeanPrompt, MeanOutput: cfg.MeanOutput,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ext []Request
	if extra := cfg.BurstRPS - cfg.BaseRPS; extra > 0 {
		all, err := Generate(TraceConfig{
			Seed: cfg.Seed + 1, RPS: extra, Duration: cfg.Duration,
			MeanPrompt: cfg.MeanPrompt, MeanOutput: cfg.MeanOutput,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range all {
			if r.Arrival%cfg.Period < cfg.BurstLen {
				ext = append(ext, r)
			}
		}
	}
	out := make([]Request, 0, len(base)+len(ext))
	for len(base) > 0 || len(ext) > 0 {
		var r Request
		if len(base) > 0 && (len(ext) == 0 || base[0].Arrival <= ext[0].Arrival) {
			r, base = base[0], base[1:]
		} else {
			r, ext = ext[0], ext[1:]
		}
		r.ID = len(out)
		out = append(out, r)
	}
	return out
}

// TestBurstySourceMatchesReference checks NewBursty request by request
// against referenceBursty, at several seeds and shapes, the benchmark's
// pool-burst shape (40 RPS, 600 RPS bursts of 5 s every 30 s) included.
func TestBurstySourceMatchesReference(t *testing.T) {
	shapes := []BurstConfig{
		{BaseRPS: 10, BurstRPS: 80, Period: 10 * time.Second, BurstLen: 2 * time.Second, Duration: 60 * time.Second},
		{BaseRPS: 40, BurstRPS: 600, Period: 30 * time.Second, BurstLen: 5 * time.Second, Duration: 3 * time.Minute, MeanOutput: 8},
		{BaseRPS: 2, BurstRPS: 30, Period: 7 * time.Second, BurstLen: 6 * time.Second, Duration: 90 * time.Second, MeanPrompt: 500},
	}
	for _, shape := range shapes {
		for _, seed := range []int64{1, 7, 42} {
			cfg := shape
			cfg.Seed = seed
			want := referenceBursty(t, cfg)
			src, err := NewBursty(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v: streamed %d requests, reference %d", cfg, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%+v: request %d: streamed %+v, reference %+v", cfg, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBurstyEqualRatesIsFlat: a burst rate equal to the base rate adds
// no extra stream, so the trace is the base-rate Poisson trace.
func TestBurstyEqualRatesIsFlat(t *testing.T) {
	cfg := BurstConfig{
		Seed: 3, BaseRPS: 5, BurstRPS: 5,
		Period: 10 * time.Second, BurstLen: 2 * time.Second, Duration: time.Minute,
	}
	got, err := GenerateBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(TraceConfig{Seed: cfg.Seed, RPS: cfg.BaseRPS, Duration: cfg.Duration})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("bursty trace has %d requests, flat trace %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: bursty %+v, flat %+v", i, got[i], want[i])
		}
	}
}

func TestSliceSource(t *testing.T) {
	reqs := []Request{{ID: 0, Arrival: 0, PromptTokens: 1, OutputTokens: 1}, {ID: 1, Arrival: time.Second, PromptTokens: 2, OutputTokens: 2}}
	got, err := Collect(NewSlice(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Fatalf("Collect = %+v", got)
	}
}
