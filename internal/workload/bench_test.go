package workload

import (
	"testing"
	"time"
)

// benchSources returns streaming sources shaped like the repository
// benchmark's arrivals — fleet-churn's Poisson 100 RPS, pool-burst's
// 40 RPS with 600 RPS bursts, fleet-diurnal's 440 RPS diurnal fleet
// rate — each long enough that no benchmark drains it.
func benchSources(tb testing.TB) []struct {
	name string
	src  Source
} {
	tb.Helper()
	const long = 10000 * time.Hour
	poisson, err := NewPoisson(TraceConfig{Seed: 1, RPS: 100, Duration: long})
	if err != nil {
		tb.Fatal(err)
	}
	bursty, err := NewBursty(BurstConfig{
		Seed: 1, BaseRPS: 40, BurstRPS: 600,
		Period: 30 * time.Second, BurstLen: 5 * time.Second,
		Duration: long, MeanOutput: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	diurnal, err := NewDiurnal(DiurnalConfig{
		Seed: 1, BaseRPS: 440, Amplitude: 0.8, Period: time.Minute,
		BurstFactor: 2, MeanBurst: time.Second, MeanCalm: 3 * time.Second,
		Duration: long, MaxPrompt: 512, MeanOutput: 8, MaxOutput: 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name string
		src  Source
	}{{"poisson", poisson}, {"bursty", bursty}, {"diurnal", diurnal}}
}

func BenchmarkSourceNext(b *testing.B) {
	for _, s := range benchSources(b) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.src.Next(); !ok {
					b.Fatal("source drained")
				}
			}
		})
	}
}

// TestSourceNextAllocatesNothing: pulling a request from a warm
// Poisson, bursty or diurnal source allocates nothing.
func TestSourceNextAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, s := range benchSources(t) {
		s.src.Next()
		if n := testing.AllocsPerRun(1000, func() { s.src.Next() }); n != 0 {
			t.Errorf("%s Next allocated %v times per call, want 0", s.name, n)
		}
	}
}
