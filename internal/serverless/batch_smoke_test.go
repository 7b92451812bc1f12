package serverless

import (
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/workload"
)

// batchSmokeBudget bounds the 100k-request batched smoke's wall clock.
// Batched iterations do more bookkeeping per virtual step than the
// legacy admission path, but the run still finishes in seconds on the
// development machine; the budget absorbs slow CI hosts.
const batchSmokeBudget = 90 * time.Second

// TestBatchSmoke100k streams one hundred thousand requests through a
// two-node Zipf fleet in batched execution mode under a wall-clock
// budget, an allocs/request ceiling, a bytes/request ceiling and the
// reactive autoscaler's Desired-calls/request ceiling — the pooled
// per-request and per-sequence state must hold at scale exactly like
// the legacy path.
// It runs from `make batch-smoke` (gated on MEDUSA_BATCH_SMOKE so
// ordinary `go test ./...` stays fast).
func TestBatchSmoke100k(t *testing.T) {
	if os.Getenv("MEDUSA_BATCH_SMOKE") == "" {
		t.Skip("set MEDUSA_BATCH_SMOKE=1 to run the 100k-request batched smoke (make batch-smoke)")
	}
	models := fixtureModels[:2]
	deps := make([]Deployment, 0, len(models))
	for i, name := range models {
		dcfg := idleOut(medusaDeployment(t, name, int64(i+1)), 500*time.Millisecond)
		dcfg.Scheduler.Batch = sched.Params{BatchTokens: 512, KVBlocks: 96, ChunkedPrefill: true}
		deps = append(deps, Deployment{Name: name, Config: dcfg})
	}
	// Prompts clamp to 512 tokens so the largest request needs 34 KV
	// blocks — admissible against the 96-block pool, tight enough that
	// concurrent decodes still preempt.
	src, err := workload.NewPoisson(workload.TraceConfig{
		Seed: 97, RPS: 700, Duration: 150 * time.Second,
		MaxPrompt: 512, MeanOutput: 8, MaxOutput: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := ZipfArrivals(src, len(deps), 43, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Fleet{
		Nodes: 2, GPUsPerNode: 8, Seed: 7,
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

	completed, preempted := 0, 0
	for _, d := range res.PerDeployment {
		completed += d.Completed
		preempted += d.Preemptions
	}
	if completed < 100_000 {
		t.Fatalf("completed %d requests, want ≥ 100k (workload mis-sized)", completed)
	}
	if elapsed > batchSmokeBudget {
		t.Fatalf("100k-request batched run took %v, budget %v", elapsed, batchSmokeBudget)
	}
	allocsPerReq := float64(after.Mallocs-before.Mallocs) / float64(completed)
	checkCeiling(t, "allocs/request", "max_allocs_per_request_batched", allocsPerReq)
	bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(completed)
	checkCeiling(t, "bytes/request", "max_bytes_per_request_batched", bytesPerReq)
	desiredPerReq := float64(res.Work.Desired) / float64(completed)
	checkCeiling(t, "Desired calls/request", "max_desired_calls_per_request", desiredPerReq)
	t.Logf("completed %d requests in %v (%.2f allocs/request, %.1f bytes/request, %.2f Desired calls/request, %d preemptions, %d cold starts)",
		completed, elapsed, allocsPerReq, bytesPerReq, desiredPerReq, preempted, res.TotalColdStarts)
}
