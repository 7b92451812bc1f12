package cluster

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// faultConfig is churnConfig plus a fault plan and two Medusa
// deployments whose relaunch churn gives the injector plenty of draws.
func faultConfig(t *testing.T, plan *faults.Plan) serverless.Fleet {
	cfg := churnConfig(artifactcache.PolicyLRU)
	cfg.Faults = plan
	cfg.Deployments = []serverless.Deployment{
		{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 250*time.Millisecond),
			Requests: genTrace(t, 31, 2, 15)},
		{Name: "b", Config: idleOut(medusaDeployment(t, "Llama2-7B", 2), 250*time.Millisecond),
			Requests: genTrace(t, 32, 1, 15)},
	}
	return cfg
}

func submittedOf(cfg serverless.Fleet) int {
	n := 0
	for _, d := range cfg.Deployments {
		n += len(d.Requests)
	}
	return n
}

// TestClusterFaultsSurvivable is the tentpole acceptance check: under a
// plan that fires every site plus a node crash, no injected fault
// aborts the run and every submitted request completes.
func TestClusterFaultsSurvivable(t *testing.T) {
	plan := &faults.Plan{
		Seed:            9,
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.2},
		RegistryTimeout: faults.SiteSpec{Probability: 0.2},
		SSDRead:         faults.SiteSpec{Probability: 0.2},
		RestoreMismatch: faults.SiteSpec{Probability: 0.2},
		NodeCrashes:     []faults.NodeCrash{{Node: 1, At: faults.Duration(4 * time.Second)}},
	}
	cfg := faultConfig(t, plan)
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatalf("injected faults must degrade, not abort: %v", err)
	}

	// Conservation: everything submitted completes, despite degradations,
	// requeues and a dead node.
	total := 0
	for _, d := range res.PerDeployment {
		total += d.Completed
	}
	if want := submittedOf(cfg); total != want {
		t.Fatalf("completed %d of %d submitted", total, want)
	}
	if res.NodeCrashes != 1 || !res.PerNode[1].Crashed {
		t.Fatalf("crash plan not applied: crashes %d, node1 crashed %v",
			res.NodeCrashes, res.PerNode[1].Crashed)
	}
	if res.Degraded == 0 {
		t.Fatal("p=0.2 on every site produced no degraded launches")
	}
	agg := 0
	for _, d := range res.PerDeployment {
		agg += d.Degraded
		sum := int(d.Metrics.Counter("degraded_"+faults.ReasonCorruptArtifact).Value()) +
			int(d.Metrics.Counter("degraded_"+faults.ReasonRestoreMismatch).Value()) +
			int(d.Metrics.Counter("degraded_"+faults.ReasonFetchTimeout).Value()) +
			int(d.Metrics.Counter("degraded_"+faults.ReasonSSDReadFailed).Value())
		if sum != d.Degraded {
			t.Fatalf("deployment %s: per-reason counters sum to %d, Degraded %d", d.Name, sum, d.Degraded)
		}
	}
	if agg != res.Degraded {
		t.Fatalf("per-deployment degraded sum %d != cluster total %d", agg, res.Degraded)
	}
	// Every launch made exactly one cache request — a hit, miss,
	// coalesced join or timeout — even the ones lost to the crash.
	if res.Cache.Requests() != res.TotalColdStarts {
		t.Fatalf("cache requests %d != cold starts %d (stats %+v)",
			res.Cache.Requests(), res.TotalColdStarts, res.Cache)
	}
	// Phase attribution stays exact with restore_failed intervals mixed in.
	for _, d := range res.PerDeployment {
		if drift := d.ColdStartPhases.Total() - d.ColdStartTotal; drift != 0 {
			t.Fatalf("deployment %s: phase attribution drifted by %v under faults", d.Name, drift)
		}
	}
	if !strings.Contains(res.Render(), "faults: degraded") {
		t.Fatalf("render missing fault section:\n%s", res.Render())
	}
}

// TestClusterFaultsDeterministic locks the determinism contract: fixed
// seed and plan render byte-identical Results and Chrome exports across
// repetitions and GOMAXPROCS settings.
func TestClusterFaultsDeterministic(t *testing.T) {
	plan := &faults.Plan{
		Seed:            3,
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.15},
		RegistryTimeout: faults.SiteSpec{Probability: 0.15},
		SSDRead:         faults.SiteSpec{Probability: 0.15},
		RestoreMismatch: faults.SiteSpec{Probability: 0.15},
		NodeCrashes:     []faults.NodeCrash{{Node: 0, At: faults.Duration(6 * time.Second)}},
	}
	run := func() (string, string) {
		cfg := faultConfig(t, plan)
		tr := obsTracer()
		cfg.Tracer = tr.tracer
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.Metrics.Render(), tr.chrome(t)
	}
	r1, c1 := run()
	for rep := 0; rep < 2; rep++ {
		r, c := run()
		if r != r1 {
			t.Fatalf("rep %d: rendered results differ:\n--- run1\n%s\n--- rep\n%s", rep, r1, r)
		}
		if c != c1 {
			t.Fatalf("rep %d: chrome exports differ", rep)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	r, c := run()
	runtime.GOMAXPROCS(prev)
	if r != r1 || c != c1 {
		t.Fatal("fault-injected run differs under GOMAXPROCS=1")
	}
}

// TestClusterEmptyPlanBitIdentical pins the zero-plan contract: a nil
// plan and an explicit zero plan render byte-identical output, with no
// fault lines.
func TestClusterEmptyPlanBitIdentical(t *testing.T) {
	run := func(plan *faults.Plan) (string, string) {
		cfg := faultConfig(t, plan)
		tr := obsTracer()
		cfg.Tracer = tr.tracer
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.Metrics.Render(), tr.chrome(t)
	}
	rNil, cNil := run(nil)
	rZero, cZero := run(&faults.Plan{})
	if rNil != rZero || cNil != cZero {
		t.Fatalf("zero plan changed output:\n--- nil\n%s\n--- zero\n%s", rNil, rZero)
	}
	if strings.Contains(rNil, "degraded") || strings.Contains(rNil, "faults:") {
		t.Fatalf("fault-free render leaks fault lines:\n%s", rNil)
	}
}

// TestClusterAllFetchesTimeOut drives the harshest registry outage:
// every fetch attempt times out, so every artifact launch must degrade
// — and still serve every request.
func TestClusterAllFetchesTimeOut(t *testing.T) {
	plan := &faults.Plan{RegistryTimeout: faults.SiteSpec{Every: 1}}
	cfg := faultConfig(t, plan)
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatalf("total registry outage must degrade, not abort: %v", err)
	}
	total := 0
	for _, d := range res.PerDeployment {
		total += d.Completed
		if d.Degraded != d.ColdStarts {
			t.Fatalf("deployment %s: %d of %d launches degraded; total outage should degrade all",
				d.Name, d.Degraded, d.ColdStarts)
		}
		if got := int(d.Metrics.Counter("degraded_" + faults.ReasonFetchTimeout).Value()); got != d.Degraded {
			t.Fatalf("deployment %s: degraded_fetch_timeout %d != degraded %d", d.Name, got, d.Degraded)
		}
	}
	if want := submittedOf(cfg); total != want {
		t.Fatalf("completed %d of %d submitted", total, want)
	}
	if res.Cache.TimedOut != res.TotalColdStarts {
		t.Fatalf("timed out %d != cold starts %d", res.Cache.TimedOut, res.TotalColdStarts)
	}
}

// TestClusterCrashRequeues kills a node mid-run and checks the requeue
// accounting: the crash is recorded, in-flight work is requeued or
// written off, and conservation still holds.
func TestClusterCrashRequeues(t *testing.T) {
	plan := &faults.Plan{NodeCrashes: []faults.NodeCrash{{Node: 0, At: faults.Duration(3 * time.Second)}}}
	cfg := faultConfig(t, plan)
	// Long generations guarantee the crash lands on a running batch:
	// thousands of decode iterations span the 3s crash instant.
	long := []workload.Request{
		{ID: 0, Arrival: 0, PromptTokens: 64, OutputTokens: 4000},
		{ID: 1, Arrival: 200 * time.Millisecond, PromptTokens: 128, OutputTokens: 4000},
	}
	cfg.Deployments = []serverless.Deployment{
		{Name: "a", Config: medusaDeployment(t, "Qwen1.5-0.5B", 1), Requests: long},
		{Name: "b", Config: medusaDeployment(t, "Llama2-7B", 2), Requests: genTrace(t, 34, 2, 10)},
	}
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range res.PerDeployment {
		total += d.Completed
	}
	if want := submittedOf(cfg); total != want {
		t.Fatalf("completed %d of %d submitted after crash", total, want)
	}
	if res.NodeCrashes != 1 || !res.PerNode[0].Crashed || res.PerNode[1].Crashed {
		t.Fatalf("crash accounting wrong: %d crashes, node0 %v node1 %v",
			res.NodeCrashes, res.PerNode[0].Crashed, res.PerNode[1].Crashed)
	}
	if res.Requeued == 0 {
		t.Fatal("a 3s crash into a 15s busy trace should requeue running requests")
	}
	// Without probabilistic sites, no launch degrades: the crash only
	// re-places work.
	if res.Degraded != 0 {
		t.Fatalf("crash-only plan degraded %d launches", res.Degraded)
	}
}

// templated converts a Medusa deployment to the template-factored
// form: its artifact re-encodes as a v3 delta against a per-family
// template (here built from the deployment's own artifact — the
// smallest valid fleet), so cold fetches pull template+delta and the
// template fault sites are armed.
func templated(t testing.TB, cfg serverless.Config) serverless.Config {
	t.Helper()
	tmpl, err := medusa.BuildTemplate(engine.TemplateKey(cfg.Model.Family), cfg.Cache.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache.Template = tmpl
	cfg.Cache.ArtifactBytes = 0 // recompute on demand: delta bytes, not the v2 size
	return cfg
}

// templateFaultConfig is faultConfig with every deployment
// template-factored.
func templateFaultConfig(t *testing.T, plan *faults.Plan) serverless.Fleet {
	cfg := faultConfig(t, plan)
	for i := range cfg.Deployments {
		cfg.Deployments[i].Config = templated(t, cfg.Deployments[i].Config)
	}
	return cfg
}

// TestClusterTemplateMissingDegrades pins satellite 4's fault contract:
// when the shared template is absent from the registry, every launch
// degrades to a vanilla cold start — after one wasted registry round
// trip — and the run completes instead of aborting.
func TestClusterTemplateMissingDegrades(t *testing.T) {
	plan := &faults.Plan{TemplateMissing: faults.SiteSpec{Every: 1}}
	cfg := templateFaultConfig(t, plan)
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatalf("missing template must degrade to vanilla cold start, not abort: %v", err)
	}
	total := 0
	for _, d := range res.PerDeployment {
		total += d.Completed
		if d.ColdStarts == 0 {
			t.Fatalf("deployment %s never cold-started", d.Name)
		}
		if d.Degraded != d.ColdStarts {
			t.Fatalf("deployment %s: %d of %d launches degraded; a missing template should degrade all",
				d.Name, d.Degraded, d.ColdStarts)
		}
		if got := int(d.Metrics.Counter("degraded_" + faults.ReasonTemplateMissing).Value()); got != d.Degraded {
			t.Fatalf("deployment %s: degraded_template_missing %d != degraded %d", d.Name, got, d.Degraded)
		}
		// Phase attribution stays exact with the injected registry
		// round trip mixed in.
		if drift := d.ColdStartPhases.Total() - d.ColdStartTotal; drift != 0 {
			t.Fatalf("deployment %s: phase attribution drifted by %v", d.Name, drift)
		}
	}
	if want := submittedOf(cfg); total != want {
		t.Fatalf("completed %d of %d submitted", total, want)
	}
}

// TestClusterCorruptTemplateDegrades drives SiteArtifactCorrupt against
// the template key: the fetched template fails its checksum, the cached
// copy is discarded, and the launch falls back to a vanilla cold start.
func TestClusterCorruptTemplateDegrades(t *testing.T) {
	plan := &faults.Plan{ArtifactCorrupt: faults.SiteSpec{Every: 1}}
	cfg := templateFaultConfig(t, plan)
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatalf("corrupt template must degrade, not abort: %v", err)
	}
	total := 0
	for _, d := range res.PerDeployment {
		total += d.Completed
		if d.Degraded != d.ColdStarts {
			t.Fatalf("deployment %s: %d of %d launches degraded", d.Name, d.Degraded, d.ColdStarts)
		}
		// On a templated deployment the corrupt draw lands on the
		// template before the delta, so every degradation is
		// template_corrupt, not corrupt_artifact.
		if got := int(d.Metrics.Counter("degraded_" + faults.ReasonCorruptTemplate).Value()); got != d.Degraded {
			t.Fatalf("deployment %s: degraded_template_corrupt %d != degraded %d", d.Name, got, d.Degraded)
		}
	}
	if want := submittedOf(cfg); total != want {
		t.Fatalf("completed %d of %d submitted", total, want)
	}
}

// TestClusterTemplateFaultsDeterministic extends the determinism
// contract to the template fault sites: fixed seed and plan render
// byte-identical Results across repetitions and GOMAXPROCS settings.
func TestClusterTemplateFaultsDeterministic(t *testing.T) {
	plan := &faults.Plan{
		Seed:            5,
		TemplateMissing: faults.SiteSpec{Probability: 0.2},
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.2},
		SSDRead:         faults.SiteSpec{Probability: 0.1},
	}
	run := func() (string, string) {
		cfg := templateFaultConfig(t, plan)
		tr := obsTracer()
		cfg.Tracer = tr.tracer
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.Metrics.Render(), tr.chrome(t)
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 {
		t.Fatalf("rendered results differ across reps:\n--- run1\n%s\n--- run2\n%s", r1, r2)
	}
	if c1 != c2 {
		t.Fatal("chrome exports differ across reps")
	}
	prev := runtime.GOMAXPROCS(1)
	r3, c3 := run()
	runtime.GOMAXPROCS(prev)
	if r3 != r1 || c3 != c1 {
		t.Fatal("template-faulted run differs under GOMAXPROCS=1")
	}
}

// TestClusterCrashValidation rejects plans the fleet cannot survive;
// a plan that is invalid in itself is a *ConfigError on field Faults.
func TestClusterCrashValidation(t *testing.T) {
	base := faultConfig(t, nil)
	for _, tc := range []struct {
		name  string
		plan  faults.Plan
		field string
	}{
		{"node out of range", faults.Plan{NodeCrashes: []faults.NodeCrash{{Node: 2}}}, ""},
		{"all nodes crash", faults.Plan{NodeCrashes: []faults.NodeCrash{{Node: 0}, {Node: 1}}}, ""},
		{"invalid probability", faults.Plan{SSDRead: faults.SiteSpec{Probability: 1.5}}, "Faults"},
	} {
		cfg := base
		plan := tc.plan
		cfg.Faults = &plan
		_, err := serverless.RunFleet(cfg)
		if err == nil {
			t.Errorf("%s: Run accepted an unsurvivable plan", tc.name)
			continue
		}
		var ce *serverless.ConfigError
		if tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field) {
			t.Errorf("%s: error %v is not a *ConfigError on field %s", tc.name, err, tc.field)
		}
	}
}
