package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// fleetSources builds the phase-staggered diurnal sources the control
// plane tests drive: bursty multi-tenant traffic with troughs deep
// enough that the autoscaler's retirement decisions actually bind.
func fleetSources(t testing.TB, n int, skew float64) []workload.Source {
	t.Helper()
	srcs, err := workload.DiurnalFleet(workload.DiurnalConfig{
		Seed: 401, BaseRPS: 6, Amplitude: 0.9, Period: 10 * time.Second,
		BurstFactor: 2, MeanBurst: 2 * time.Second, MeanCalm: 4 * time.Second,
		Duration:   30 * time.Second,
		MeanOutput: 16, MaxOutput: 32,
	}, n, skew)
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// fleetConfig assembles a two-tenant cluster fed by diurnal sources,
// parameterized over the control-plane policies under test.
func fleetConfig(t testing.TB, scaler autoscale.Policy, route router.Policy, slo serverless.SLO) serverless.Fleet {
	t.Helper()
	cfg := churnConfig(artifactcache.PolicyLRU)
	cfg.Autoscaler = scaler
	cfg.Router = route
	cfg.SLO = slo
	cfg.Deployments = []serverless.Deployment{
		{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), time.Second)},
		{Name: "b", Config: idleOut(medusaDeployment(t, "Llama2-7B", 2), time.Second)},
	}
	cfg.Arrivals = serverless.MergeArrivals(fleetSources(t, 2, 1.0))
	return cfg
}

// TestReactivePolicyMatchesLegacy pins the pluggable control plane's
// compatibility contract: a run with the reactive policy explicitly
// configured renders byte-identically to a run with no Autoscaler at
// all (the legacy built-in formula).
func TestReactivePolicyMatchesLegacy(t *testing.T) {
	run := func(scaler autoscale.Policy) string {
		cfg := fleetConfig(t, scaler, nil, serverless.SLO{})
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.Metrics.Render()
	}
	legacy := run(nil)
	reactive := run(autoscale.NewReactive())
	if legacy != reactive {
		t.Fatalf("reactive policy diverges from legacy autoscaler:\n--- legacy\n%s\n--- reactive\n%s", legacy, reactive)
	}
}

// TestFleetControlPlaneDeterministic: the full control plane stack —
// predictive autoscaling with retention, score routing, SLO accounting,
// diurnal sources — must render byte-identically across repetitions
// and scheduler parallelism. Policies are rebuilt per run: the
// predictive policy carries forecast state.
func TestFleetControlPlaneDeterministic(t *testing.T) {
	run := func() string {
		scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		route, err := router.Parse("score")
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleetConfig(t, scaler, route, serverless.SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond})
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Fatal("no requests completed")
		}
		return res.Render() + res.Metrics.Render()
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("control-plane runs differ across identical configs:\n--- run1\n%s\n--- run2\n%s", r1, r2)
	}
	prev := runtime.GOMAXPROCS(1)
	r3 := run()
	runtime.GOMAXPROCS(prev)
	if r3 != r1 {
		t.Fatal("control-plane run differs under GOMAXPROCS=1")
	}
	if !strings.Contains(r1, "fleet: autoscale predictive router score") {
		t.Fatalf("render missing control-plane line:\n%s", r1)
	}
	if !strings.Contains(r1, "slo attainment") {
		t.Fatalf("render missing SLO attainment line:\n%s", r1)
	}
}

// TestRouterConservesRequests: dispatch order is a scheduling choice,
// not a admission decision — every router must complete exactly the
// same request population.
func TestRouterConservesRequests(t *testing.T) {
	counts := map[string]int{}
	for _, name := range []string{"fifo", "score"} {
		route, err := router.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleetConfig(t, nil, route, serverless.SLO{})
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[name] = res.Completed
	}
	if counts["fifo"] != counts["score"] {
		t.Fatalf("routers completed different request counts: fifo %d, score %d",
			counts["fifo"], counts["score"])
	}
}

// TestSLOAttainmentExact hand-checks the attainment accounting at its
// two poles: a deadline no request can miss yields exactly 1.0, and a
// deadline no request can meet yields exactly 0.0 (every TTFT is
// positive). The same workload runs in both arms, so Completed must
// match too.
func TestSLOAttainmentExact(t *testing.T) {
	run := func(slo serverless.SLO) *serverless.FleetResult {
		cfg := fleetConfig(t, nil, nil, slo)
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lax := run(serverless.SLO{TTFT: time.Hour})
	if lax.SLOMet != lax.Completed || lax.SLOAttainment() != 1.0 {
		t.Fatalf("1h TTFT deadline: met %d of %d (attainment %f), want all",
			lax.SLOMet, lax.Completed, lax.SLOAttainment())
	}
	strict := run(serverless.SLO{TTFT: time.Nanosecond})
	if strict.SLOMet != 0 || strict.SLOAttainment() != 0 {
		t.Fatalf("1ns TTFT deadline: met %d (attainment %f), want none",
			strict.SLOMet, strict.SLOAttainment())
	}
	if lax.Completed != strict.Completed {
		t.Fatalf("deadline changed the workload: %d vs %d completions", lax.Completed, strict.Completed)
	}
	// Without an SLO the accounting stays off: no counter, no render line.
	off := run(serverless.SLO{})
	if off.SLOMet != 0 {
		t.Fatalf("SLOMet %d with no SLO configured", off.SLOMet)
	}
	if strings.Contains(off.Render(), "slo attainment") {
		t.Fatal("attainment rendered with no SLO configured")
	}
}

// TestNodeSecondsBounds sanity-checks the fleet cost metric: positive,
// and no greater than every node being up for the whole run.
func TestNodeSecondsBounds(t *testing.T) {
	cfg := fleetConfig(t, nil, nil, serverless.SLO{})
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeSeconds <= 0 {
		t.Fatalf("node-seconds %f, want positive", res.NodeSeconds)
	}
	ceiling := float64(cfg.Nodes) * res.Makespan.Seconds()
	if res.NodeSeconds > ceiling {
		t.Fatalf("node-seconds %f exceeds %d nodes × makespan %v = %f",
			res.NodeSeconds, cfg.Nodes, res.Makespan, ceiling)
	}
}

// TestRetainerHoldsThroughTroughs: the predictive policy's scale-down
// veto must not cost completions or determinism, and with retention
// enabled the deployment relaunches no more often than the baseline —
// held instances replace cold starts on trickle traffic.
func TestRetainerHoldsThroughTroughs(t *testing.T) {
	coldStarts := func(scaler autoscale.Policy) (int, int) {
		cfg := fleetConfig(t, scaler, nil, serverless.SLO{})
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalColdStarts, res.Completed
	}
	reactiveCold, reactiveDone := coldStarts(nil)
	scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{
		Window: time.Second, MaxStep: -1, KeepWarm: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	predCold, predDone := coldStarts(scaler)
	if predDone != reactiveDone {
		t.Fatalf("retention changed completions: %d vs %d", predDone, reactiveDone)
	}
	if predCold > reactiveCold {
		t.Fatalf("retention-only policy cold-started more than the baseline: %d > %d",
			predCold, reactiveCold)
	}
}
