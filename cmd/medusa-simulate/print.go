package main

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// repStats is one replication's headline numbers.
type repStats struct {
	requests   int
	completed  int
	coldStarts int
	p50TTFT    time.Duration
	p99TTFT    time.Duration
	throughput float64
}

// repWorkers maps the -parallel flag to a worker count: sequential by
// default, one worker per core with -parallel. Results are merged in
// replication order either way, so the output bytes do not depend on
// the choice.
func repWorkers(parallel bool) int {
	if parallel {
		return 0 // replicate.Run: GOMAXPROCS
	}
	return 1
}

// printRepTable renders per-replication rows plus mean ± 95% CI
// summary lines for the headline statistics.
func printRepTable(stats []repStats) {
	fmt.Printf("\n%-4s %10s %10s %12s %14s %14s %14s\n",
		"rep", "requests", "completed", "cold starts", "p50 TTFT", "p99 TTFT", "throughput")
	var p50s, p99s, colds, thrs []float64
	for i, st := range stats {
		p50s = append(p50s, st.p50TTFT.Seconds())
		p99s = append(p99s, st.p99TTFT.Seconds())
		colds = append(colds, float64(st.coldStarts))
		thrs = append(thrs, st.throughput)
		fmt.Printf("%-4d %10d %10d %12d %13.3fs %13.3fs %9.2f req/s\n",
			i, st.requests, st.completed, st.coldStarts,
			st.p50TTFT.Seconds(), st.p99TTFT.Seconds(), st.throughput)
	}
	p50m, p50ci := metrics.MeanCI(p50s)
	p99m, p99ci := metrics.MeanCI(p99s)
	coldm, coldci := metrics.MeanCI(colds)
	thrm, thrci := metrics.MeanCI(thrs)
	fmt.Printf("\nacross %d independent-seed replications (mean ± 95%% CI):\n", len(stats))
	fmt.Printf("  TTFT p50:    %.3f ± %.3f s\n", p50m, p50ci)
	fmt.Printf("  TTFT p99:    %.3f ± %.3f s\n", p99m, p99ci)
	fmt.Printf("  cold starts: %.1f ± %.1f\n", coldm, coldci)
	fmt.Printf("  throughput:  %.2f ± %.2f req/s\n", thrm, thrci)
}

// printRepHeader opens a replicated run: the single-pool printer
// names the workload, the fleet's table stands alone.
func (s *simulator) printRepHeader(reps int, parallel bool) {
	if s.fleetMode() {
		return
	}
	fmt.Printf("model=%s strategy=%s rps=%.1f duration=%ds reps=%d parallel=%v\n",
		s.v.ModelNames()[0], s.strategy, s.v.RPS, s.v.DurationSec, reps, parallel)
}

// stats folds one replication into headline numbers. A fleet's
// per-deployment TTFT samples merge deterministically (reservoir
// offers happen in deployment order); the single pool reports its one
// deployment.
func (s *simulator) stats(f serverless.Fleet, res *serverless.FleetResult) repStats {
	if !s.fleetMode() {
		d := res.PerDeployment[0]
		return repStats{
			requests:   len(f.Deployments[0].Requests),
			completed:  d.Completed,
			coldStarts: d.ColdStarts,
			p50TTFT:    d.TTFT.P50(),
			p99TTFT:    d.TTFT.P99(),
			throughput: d.Throughput,
		}
	}
	fleet := &metrics.Sample{}
	st := repStats{coldStarts: res.TotalColdStarts}
	for _, d := range res.PerDeployment {
		st.completed += d.Completed
		fleet.AddAll(d.TTFT)
	}
	st.requests = st.completed
	st.p50TTFT = fleet.P50()
	st.p99TTFT = fleet.P99()
	if res.Makespan > 0 {
		st.throughput = float64(st.completed) / res.Makespan.Seconds()
	}
	return st
}

// print reports one run: the fleet's Render, or the single pool's
// latency summary and TTFT histogram.
func (s *simulator) print(f serverless.Fleet, res *serverless.FleetResult) {
	if s.fleetMode() {
		fmt.Print(res.Render())
		return
	}
	d := res.PerDeployment[0]
	fmt.Printf("model=%s strategy=%s rps=%.1f duration=%ds requests=%d\n",
		d.Name, s.strategy, s.v.RPS, s.v.DurationSec, len(f.Deployments[0].Requests))
	fmt.Printf("  completed:      %d\n", d.Completed)
	fmt.Printf("  cold starts:    %d (peak instances %d)\n", d.ColdStarts, d.PeakInstances)
	if s.plan != nil && !s.plan.Zero() {
		fmt.Printf("  degraded:       %d cold starts fell back to vanilla (see FAILURES.md)\n", d.Degraded)
	}
	fmt.Printf("  throughput:     %.2f req/s\n", d.Throughput)
	fmt.Printf("  TTFT p50/p99:   %.3fs / %.3fs\n", d.TTFT.P50().Seconds(), d.TTFT.P99().Seconds())
	fmt.Printf("  E2E  p50/p99:   %.3fs / %.3fs\n", d.E2E.P50().Seconds(), d.E2E.P99().Seconds())
	if d.TPOT != nil {
		fmt.Printf("  TPOT p50/p99:   %.1fms / %.1fms (%d preemptions)\n",
			float64(d.TPOT.P50().Microseconds())/1000, float64(d.TPOT.P99().Microseconds())/1000,
			d.Preemptions)
	}
	fmt.Printf("  TTFT ≤ %v:      %.1f%% of requests\n", s.slo, d.TTFT.FractionBelow(s.slo)*100)
	fmt.Println("\nTTFT distribution (100ms buckets):")
	fmt.Print(d.TTFT.Histogram(100*time.Millisecond, 50))
}
