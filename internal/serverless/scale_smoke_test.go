package serverless

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/workload"
)

// scaleSmokeBudget bounds the 1M-request smoke's wall clock. The run
// takes single-digit seconds on the development machine; the budget is
// generous for slow CI hosts while still catching a return to the
// pre-streaming core (which needed minutes at this scale).
const scaleSmokeBudget = 90 * time.Second

// checkCeiling fails the test when a per-request figure exceeds its
// checked-in threshold, testdata/<file> — the benchstat-style guard
// against hot-path regressions.
func checkCeiling(t *testing.T, what, file string, perReq float64) {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("testdata/%s: %v", file, err)
	}
	if perReq > limit {
		t.Fatalf("%s = %.2f exceeds checked-in threshold %.2f (testdata/%s); "+
			"if the regression is intentional, update the threshold deliberately",
			what, perReq, limit, file)
	}
}

// TestScaleSmoke1M streams one million requests through a four-node
// Zipf fleet under a wall-clock budget, an allocs/request ceiling, the
// reactive autoscaler's Desired-calls/request ceiling, a ceiling on
// popped events per request (coalesced decode runs) and one on
// dispatch steps per request (the idle-gated dispatch walk). It runs from
// `make bench-smoke` (gated on MEDUSA_SCALE_SMOKE so ordinary `go test
// ./...` stays fast).
func TestScaleSmoke1M(t *testing.T) {
	if os.Getenv("MEDUSA_SCALE_SMOKE") == "" {
		t.Skip("set MEDUSA_SCALE_SMOKE=1 to run the 1M-request scale smoke (make bench-smoke)")
	}
	models := fixtureModels[:4]
	deps := make([]Deployment, 0, len(models))
	for i, name := range models {
		deps = append(deps, Deployment{
			Name:   name,
			Config: idleOut(medusaDeployment(t, name, int64(i+1)), 500*time.Millisecond),
		})
	}
	src, err := workload.NewPoisson(workload.TraceConfig{
		Seed: 97, RPS: 2800, Duration: 360 * time.Second,
		MeanOutput: 8, MaxOutput: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := ZipfArrivals(src, len(deps), 43, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Fleet{
		Nodes: 4, GPUsPerNode: 8, Seed: 7,
		Deployments: deps,
		Arrivals:    arrivals,
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := RunFleet(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}

	completed := 0
	for _, d := range res.PerDeployment {
		completed += d.Completed
	}
	if completed < 1_000_000 {
		t.Fatalf("completed %d requests, want ≥ 1M (workload mis-sized)", completed)
	}
	if elapsed > scaleSmokeBudget {
		t.Fatalf("1M-request run took %v, budget %v", elapsed, scaleSmokeBudget)
	}
	allocsPerReq := float64(after.Mallocs-before.Mallocs) / float64(completed)
	checkCeiling(t, "allocs/request", "max_allocs_per_request", allocsPerReq)
	desiredPerReq := float64(res.Work.Desired) / float64(completed)
	checkCeiling(t, "Desired calls/request", "max_desired_calls_per_request", desiredPerReq)
	eventsPerReq := float64(res.Work.Events()) / float64(completed)
	checkCeiling(t, "events/request", "max_events_per_request", eventsPerReq)
	dispatchPerReq := float64(res.Work.DispatchSteps) / float64(completed)
	checkCeiling(t, "dispatch steps/request", "max_dispatch_steps_per_request", dispatchPerReq)
	t.Logf("completed %d requests in %v (%.4f allocs/request, %.2f Desired calls/request, %.2f events/request, %.2f dispatch steps/request, heap max %d, %d cold starts)",
		completed, elapsed, allocsPerReq, desiredPerReq, eventsPerReq, dispatchPerReq, res.Work.HeapMax, res.TotalColdStarts)
}
