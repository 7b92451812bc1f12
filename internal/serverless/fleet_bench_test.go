package serverless

import (
	"runtime"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/workload"
)

// benchZipfFleet assembles the Zipf-fleet workload the simulator-core
// performance work is measured against: ten models of skewed
// popularity churning through two nodes with tight caches and short
// idle timeouts, so the run exercises placement, cache contention,
// continual relaunching and the full event-loop hot path. It returns
// the fleet without traffic and the trace; zipfSplit feeds one run.
func benchZipfFleet(b testing.TB, rps float64, seconds int) (Fleet, []workload.Request) {
	b.Helper()
	cfg := churnConfig(artifactcache.PolicyCostAware)
	cfg.Nodes = 4
	cfg.Cache.RAMBytes = 3 << 20
	cfg.Cache.SSDBytes = 6 << 20
	cfg.LocalityWeight = 0.8
	deps := make([]Deployment, 0, len(fixtureModels))
	for i, name := range fixtureModels {
		deps = append(deps, Deployment{
			Name:   name,
			Config: idleOut(medusaDeployment(b, name, int64(i+1)), 250*time.Millisecond),
		})
	}
	trace, err := workload.Generate(workload.TraceConfig{
		Seed: 97, RPS: rps, Duration: time.Duration(seconds) * time.Second,
		MeanOutput: 8, MaxOutput: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Deployments = deps
	return cfg, trace
}

// zipfSplit streams trace across n deployments with the Zipf
// popularity benchZipfFleet measures.
func zipfSplit(b testing.TB, trace []workload.Request, n int) ArrivalSource {
	b.Helper()
	arr, err := ZipfArrivals(workload.NewSlice(trace), n, 43, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	return arr
}

// BenchmarkClusterSimWallclock is the headline simulator-core
// benchmark: wall-clock and allocations for one Zipf-fleet run
// (results/perf-simcore.txt tracks its trajectory across PRs). The two
// sizes expose the core's scaling behaviour: a core that is linear in
// events costs ~4x more for the 4x workload, anything worse shows up
// immediately.
func BenchmarkClusterSimWallclock(b *testing.B) {
	for _, bc := range []struct {
		name    string
		rps     float64
		seconds int
	}{
		{"zipf-6k", 50, 120},
		{"zipf-24k", 200, 120},
		// An hour of fleet time: instance churn (idle-timeout retirement
		// plus relaunch) accumulates thousands of launches, which is
		// where per-event scans over everything-ever-launched go
		// quadratic and an O(active) core does not.
		{"zipf-180k", 50, 3600},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, trace := benchZipfFleet(b, bc.rps, bc.seconds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// An arrival stream is read once; the trace it splits is
				// read-only, so each iteration splits it afresh.
				cfg.Arrivals = zipfSplit(b, trace, len(cfg.Deployments))
				res, err := RunFleet(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(trace)), "requests")
					b.ReportMetric(float64(res.TotalColdStarts), "cold_starts")
				}
			}
		})
	}
}

// TestFleetAllocCeiling holds the churn-shaped zipf-6k fleet of
// BenchmarkClusterSimWallclock (ten models on four nodes with tight
// caches, so every run relaunches, fetches and evicts thousands of
// times) under the checked-in ceilings of heap allocations and heap
// bytes per completed request in testdata/max_allocs_per_request_fleet
// and testdata/max_bytes_per_request_fleet. The counts cover a whole
// run: building each deployment's profile, every cold start, every
// restored graph's first-launch build and every request.
func TestFleetAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cfg, trace := benchZipfFleet(t, 50, 120)
	cfg.Arrivals = zipfSplit(t, trace, len(cfg.Deployments))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunFleet(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, d := range res.PerDeployment {
		completed += d.Completed
	}
	allocsPerReq := float64(after.Mallocs-before.Mallocs) / float64(completed)
	bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(completed)
	t.Logf("zipf-6k: %d requests, %d cold starts, %.3f allocs/request, %.0f bytes/request",
		completed, res.TotalColdStarts, allocsPerReq, bytesPerReq)
	checkCeiling(t, "allocs/request", "max_allocs_per_request_fleet", allocsPerReq)
	checkCeiling(t, "bytes/request", "max_bytes_per_request_fleet", bytesPerReq)
}
