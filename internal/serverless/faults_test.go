package serverless

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/workload"
)

// faultyMedusa is a Medusa config with idle churn (several launches per
// trace).
func faultyMedusa(t *testing.T) Config {
	t.Helper()
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Scheduler.IdleTimeout = 2 * time.Second
	return base
}

// runPlan is Run under a fault plan: cfg's deployment alone on a pool
// of cfg.NumGPUs GPUs (default 4).
func runPlan(cfg Config, plan *faults.Plan, reqs []workload.Request) (*Result, error) {
	res, err := RunMulti(MultiConfig{
		NumGPUs:     cfg.NumGPUs,
		Deployments: []Deployment{{Name: cfg.Model.Name, Config: cfg, Requests: reqs}},
		Faults:      plan,
	})
	if err != nil {
		return nil, err
	}
	return &res.PerDeployment[0].Result, nil
}

// churnReqs spaces requests past the idle timeout so every one pays a
// fresh cold start (one injector draw sequence per launch).
func churnReqs(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i, Arrival: time.Duration(i) * 10 * time.Second,
			PromptTokens: 64, OutputTokens: 4,
		}
	}
	return reqs
}

func TestRunDegradesPerSite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   faults.Plan
		reason string
	}{
		{"corrupt", faults.Plan{ArtifactCorrupt: faults.SiteSpec{Every: 1}}, faults.ReasonCorruptArtifact},
		{"mismatch", faults.Plan{RestoreMismatch: faults.SiteSpec{Every: 1}}, faults.ReasonRestoreMismatch},
		{"ssd read", faults.Plan{SSDRead: faults.SiteSpec{Every: 1}}, faults.ReasonSSDReadFailed},
	} {
		plan := tc.plan
		cfg := faultyMedusa(t)
		reqs := churnReqs(3)
		res, err := runPlan(cfg, &plan, reqs)
		if err != nil {
			t.Fatalf("%s: injected fault must degrade, not abort: %v", tc.name, err)
		}
		if res.Completed != len(reqs) {
			t.Fatalf("%s: completed %d of %d", tc.name, res.Completed, len(reqs))
		}
		if res.Degraded != res.ColdStarts || res.Degraded == 0 {
			t.Fatalf("%s: degraded %d of %d launches, want all", tc.name, res.Degraded, res.ColdStarts)
		}
		if got := int(res.Metrics.Counter("degraded_" + tc.reason).Value()); got != res.Degraded {
			t.Fatalf("%s: degraded_%s = %d, want %d", tc.name, tc.reason, got, res.Degraded)
		}
		// The degraded launch pays the failed attempt plus a vanilla cold
		// start, so its TTFT exceeds the clean Medusa launch's.
		cres, err := runPlan(cfg, nil, churnReqs(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.TTFT.Max() <= cres.TTFT.Max() {
			t.Fatalf("%s: degraded TTFT %v not above clean %v", tc.name, res.TTFT.Max(), cres.TTFT.Max())
		}
	}
}

func TestRunTransientReadRetryRecovers(t *testing.T) {
	// Every=2 fires on draws 2, 4, ...: each launch's first read attempt
	// alternates clean/failed across launches, and no launch exhausts the
	// 4-attempt budget, so nothing degrades — launches just arrive late.
	reqs := churnReqs(4)
	res, err := runPlan(faultyMedusa(t), &faults.Plan{SSDRead: faults.SiteSpec{Every: 2}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	if res.Degraded != 0 {
		t.Fatalf("transient errors degraded %d launches", res.Degraded)
	}
	if got := res.Metrics.Counter("fetch_retries").Value(); got == 0 {
		t.Fatal("no retries recorded for transient read errors")
	}
}

func TestRunEmptyPlanBitIdentical(t *testing.T) {
	run := func(plan *faults.Plan) string {
		res, err := runPlan(faultyMedusa(t), plan, churnReqs(3))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Render()
	}
	if a, b := run(nil), run(&faults.Plan{}); a != b {
		t.Fatalf("zero plan changed the metrics rendering:\n--- nil\n%s\n--- zero\n%s", a, b)
	}
}

func TestRunFaultsDeterministic(t *testing.T) {
	plan := &faults.Plan{
		Seed:            5,
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.3},
		SSDRead:         faults.SiteSpec{Probability: 0.3},
		RestoreMismatch: faults.SiteSpec{Probability: 0.3},
	}
	run := func() string {
		res, err := runPlan(faultyMedusa(t), plan, churnReqs(6))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Render()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fault-injected runs diverge:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
}
