package serverless

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/faults_golden")

// digest is the sha256 of everything a fault run reports that a
// refactor of the launch fault path could move: metrics renderings,
// cold-start phase tables and the Chrome export.
func digest(parts ...string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(parts, "\x00"))))
}

// chrome returns the tracer's Chrome export.
func chrome(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fired reports the named counter's value without registering it
// (Render lists every registered counter, so a lookup that created one
// would change the very output the golden pins).
func fired(reg *obs.Registry, name string) int64 {
	for _, n := range reg.CounterNames() {
		if n == name {
			return reg.Counter(name).Value()
		}
	}
	return 0
}

// requireCounters fails unless every named counter fired in reg.
func requireCounters(t *testing.T, run string, reg *obs.Registry, names ...string) {
	t.Helper()
	for _, name := range names {
		if fired(reg, name) == 0 {
			t.Errorf("%s: counter %s never fired; the golden would not pin its path", run, name)
		}
	}
}

// goldenSinglePool is a single-pool (cacheless) Medusa deployment
// under the heavy preset with idle churn, so most requests pay a cold
// start that reads the artifact from storage.
func goldenSinglePool(t *testing.T) string {
	_, cfg := simFixture(t, "Qwen1.5-0.5B")
	cfg.Strategy = engine.StrategyMedusa
	cfg.Scheduler.IdleTimeout = 300 * time.Millisecond
	plan := faults.Presets()["heavy"]
	tr := obs.NewTracer()
	cfg.Tracer = tr
	reqs, err := workload.Generate(workload.TraceConfig{
		Seed: 42, RPS: 0.5, Duration: 240 * time.Second, MeanOutput: 16, MaxOutput: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlan(cfg, &plan, reqs)
	if err != nil {
		t.Fatal(err)
	}
	requireCounters(t, "single pool", res.Metrics, "faults_ssd_read", "fetch_retries",
		"degraded_"+faults.ReasonCorruptArtifact,
		"degraded_"+faults.ReasonRestoreMismatch)
	trace := chrome(t, tr)
	for _, phase := range []string{engine.StageRestoreFailed, engine.StageArtifactFetch} {
		if !strings.Contains(trace, `"`+phase+`"`) {
			t.Errorf("single pool: no %s span in the trace", phase)
		}
	}
	return digest(res.Metrics.Render(), res.ColdStartPhases.Table(), trace)
}

// goldenFleet runs the two-node cached fleet under plan, traced, with
// the given per-node tier sizes.
func goldenFleet(t *testing.T, tweak func(c *Config), plan faults.Plan, ram, ssd uint64) (*FleetResult, string) {
	f := coalesceFleet(t, func(_ int, c *Config) { tweak(c) })
	f.Cache.RAMBytes, f.Cache.SSDBytes = ram, ssd
	f.Faults = &plan
	res, _, trace := runTraced(t, f, runOptions{})
	return res, trace
}

// goldenTemplated makes a deployment template-factored: its artifact
// re-encodes as a delta against a per-family template, so launches
// fetch template and delta and the template fault sites are armed.
func goldenTemplated(t *testing.T) func(c *Config) {
	return func(c *Config) {
		tmpl, err := medusa.BuildTemplate(engine.TemplateKey(c.Model.Family), c.Cache.Artifact)
		if err != nil {
			t.Fatal(err)
		}
		c.Cache.Template = tmpl
		c.Cache.ArtifactBytes = 0
	}
}

// TestFaultOutputGolden pins the byte-exact output of three fault runs
// — a cacheless single pool, a cached two-node fleet, and a
// template-factored fleet — against checked-in digests, so a refactor
// of the launch fault path can prove it moved nothing. Regenerate with
// -update only for an intended behavior change.
func TestFaultOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fault runs in -short mode")
	}
	got := map[string]string{"single_pool_heavy": goldenSinglePool(t)}

	// One artifact fits in RAM and both on SSD, so launches hit every
	// tier and the SSD read site gets draws.
	res, trace := goldenFleet(t, func(*Config) {}, faults.Presets()["heavy"], 2<<20, 4<<20)
	for _, d := range res.PerDeployment {
		requireCounters(t, "fleet "+d.Name, d.Metrics, "degraded_"+faults.ReasonCorruptArtifact)
	}
	requireCounters(t, "fleet", res.Metrics, "cache_ssd_read_errors", "cache_fetch_retries")
	got["fleet_heavy"] = digest(fleetSummary(res), trace)

	// The deltas and templates fit on SSD but not in RAM.
	res, trace = goldenFleet(t, goldenTemplated(t), faults.Plan{
		Seed:            4,
		ArtifactCorrupt: faults.SiteSpec{Probability: 0.15},
		RegistryTimeout: faults.SiteSpec{Probability: 0.5},
		SSDRead:         faults.SiteSpec{Probability: 0.5},
		RestoreMismatch: faults.SiteSpec{Probability: 0.15},
		TemplateMissing: faults.SiteSpec{Probability: 0.15},
	}, 64<<10, 4<<20)
	var missing, corrupt int64
	for _, d := range res.PerDeployment {
		missing += fired(d.Metrics, "degraded_"+faults.ReasonTemplateMissing)
		corrupt += fired(d.Metrics, "degraded_"+faults.ReasonCorruptTemplate)
	}
	if missing == 0 || corrupt == 0 {
		t.Errorf("templated fleet: template_missing fired %d times, template_corrupt %d; want both", missing, corrupt)
	}
	requireCounters(t, "templated fleet", res.Metrics, "cache_fetch_timed_out", "cache_ssd_read_errors")
	got["fleet_templated"] = digest(fleetSummary(res), trace)

	var b strings.Builder
	for _, name := range []string{"single_pool_heavy", "fleet_heavy", "fleet_templated"} {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	golden := filepath.Join("testdata", "faults_golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("fault-run output drifted from %s:\n--- got\n%s--- want\n%s", golden, b.String(), want)
	}
}
