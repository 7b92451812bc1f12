package serverless

import (
	"os"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/workload"
)

// fleetSmokeBudget bounds the 100k-request control-plane smoke's wall
// clock. The run finishes in seconds on the development machine; the
// budget absorbs slow CI hosts.
const fleetSmokeBudget = 90 * time.Second

// TestFleetSmoke100k drives the full fleet control plane — predictive
// autoscaling with retention, score routing, SLO accounting — through
// a seeded ~100k-request diurnal multi-tenant workload, and asserts
// the serving outcome stays inside checked bounds: SLO attainment high
// enough that the control plane is demonstrably scheduling (not
// timing out the fleet), node-seconds inside the physical ceiling of
// nodes × makespan, and the whole run under a wall-clock budget. It
// runs from `make fleet-smoke` (gated on MEDUSA_FLEET_SMOKE so
// ordinary `go test ./...` stays fast).
func TestFleetSmoke100k(t *testing.T) {
	if os.Getenv("MEDUSA_FLEET_SMOKE") == "" {
		t.Skip("set MEDUSA_FLEET_SMOKE=1 to run the 100k-request control-plane smoke (make fleet-smoke)")
	}
	srcs, err := workload.DiurnalFleet(workload.DiurnalConfig{
		Seed: 701, BaseRPS: 440, Amplitude: 0.8, Period: 60 * time.Second,
		BurstFactor: 2, MeanBurst: 5 * time.Second, MeanCalm: 15 * time.Second,
		Duration:  180 * time.Second,
		MaxPrompt: 512, MeanOutput: 8, MaxOutput: 16,
	}, 2, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	models := fixtureModels[:2]
	deps := make([]Deployment, 0, len(models))
	for i, name := range models {
		dcfg := idleOut(medusaDeployment(t, name, int64(i+1)), 2*time.Second)
		dcfg.Scheduler.Batch = sched.Params{BatchTokens: 512, KVBlocks: 256, ChunkedPrefill: true}
		deps = append(deps, Deployment{Name: name, Config: dcfg, Source: srcs[i]})
	}
	scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	route, err := router.Parse("score")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Fleet{
		Nodes: 4, GPUsPerNode: 8, Seed: 7,
		Deployments: deps,
		Autoscaler:  scaler,
		Router:      route,
		SLO:         SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond},
	}

	start := time.Now()
	res, err := RunFleet(cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 100_000 {
		t.Fatalf("completed %d requests, want ≥ 100k (workload mis-sized)", res.Completed)
	}
	if elapsed > fleetSmokeBudget {
		t.Fatalf("100k-request control-plane run took %v, budget %v", elapsed, fleetSmokeBudget)
	}
	if att := res.SLOAttainment(); att < 0.90 {
		t.Fatalf("SLO attainment %.4f below the 0.90 floor — the control plane stopped keeping up", att)
	}
	// Makespan ends at the last completion, but idle instances retire on
	// their timeouts (and the retention veto holds some a little longer)
	// after it — allow one retention window of drain per node on top.
	drain := res.Makespan + 10*time.Second
	ceiling := float64(cfg.Nodes) * drain.Seconds()
	if res.NodeSeconds <= 0 || res.NodeSeconds > ceiling {
		t.Fatalf("node-seconds %.3f outside (0, nodes × (makespan+drain) = %.3f]", res.NodeSeconds, ceiling)
	}
	// The predictive policy's answer also lapses at each rate-window
	// boundary (its autoscale.Horizon), so the core asks it more often
	// than the reactive one; its own ceiling pins that cost.
	desiredPerReq := float64(res.Work.Desired) / float64(res.Completed)
	checkCeiling(t, "Desired calls/request", "max_desired_calls_per_request_predictive", desiredPerReq)
	// Routed dispatch walks, and scores every idle instance of, only a
	// deployment with a request queued.
	dispatchPerReq := float64(res.Work.DispatchSteps) / float64(res.Completed)
	checkCeiling(t, "dispatch steps/request", "max_dispatch_steps_per_request_routed", dispatchPerReq)
	// A batched run of pure-decode steps with nothing queued is one
	// iteration-end event, capped at the policy's window boundaries.
	endsPerReq := float64(res.Work.IterationEnds) / float64(res.Completed)
	checkCeiling(t, "iteration-end events/request", "max_iteration_ends_per_request_batched", endsPerReq)
	t.Logf("completed %d requests in %v (attainment %.4f, node-seconds %.1f, %.2f Desired calls/request, %.2f dispatch steps/request, %.2f scores/request, %.2f iteration-end events/request for %.2f iterations, %d cold starts)",
		res.Completed, elapsed, res.SLOAttainment(), res.NodeSeconds, desiredPerReq, dispatchPerReq,
		float64(res.Work.Scores)/float64(res.Completed), endsPerReq,
		float64(res.Work.Iterations)/float64(res.Completed), res.TotalColdStarts)
}
