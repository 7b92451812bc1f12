package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// Context carries shared state across experiments: the SSD store and a
// cache of offline artifacts (the offline phase runs once per model, as
// in the paper's deployment model).
type Context struct {
	Store *storage.Store
	// Tracer, when set before running experiments, receives the spans
	// of every cold start and offline phase the context performs —
	// including PrefetchArtifacts' parallel fan-out, which is safe to
	// trace because the exporter orders spans by content, not by
	// emission order.
	Tracer *obs.Tracer
	// Batch, when it selects the batched policy (BatchTokens > 0),
	// overrides the batching parameters of experiments that serve with
	// continuous batching (ext-batching runs a single cell with these
	// knobs instead of its built-in sweep). medusa-bench populates it
	// from the -batch-tokens / -kv-blocks / -chunked-prefill flags
	// shared with medusa-simulate.
	Batch sched.Params
	// Fleet, when enabled, pins the ext-fleet experiment to a single
	// control-plane cell (that autoscaler × router × SLO) instead of
	// its built-in sweep. medusa-bench populates it from the
	// -autoscale / -router / -slo-ttft / -slo-tpot flags shared with
	// medusa-simulate.
	Fleet FleetOverrides

	mu        sync.Mutex
	artifacts map[string]*artifactEntry
	baselines map[string]*engine.Instance
	seed      int64
	phases    map[string]*obs.PhaseBreakdown
	phaseTot  map[string]time.Duration
}

// FleetOverrides carries the command-line control-plane knobs into the
// ext-fleet experiment. The policy fields hold the names accepted by
// autoscale.Parse and router.Parse — names rather than constructed
// policies, because a stateful policy must be built fresh for every
// serverless.RunFleet and the sweep runs many.
type FleetOverrides struct {
	Autoscale string
	Router    string
	SLO       serverless.SLO
}

// Enabled reports whether any knob deviates from the legacy defaults
// (reactive autoscaling, launch-order dispatch, no SLO).
func (f FleetOverrides) Enabled() bool {
	return (f.Autoscale != "" && f.Autoscale != "reactive") ||
		(f.Router != "" && f.Router != "fifo") ||
		!f.SLO.Zero()
}

type artifactEntry struct {
	art    *medusa.Artifact
	bytes  uint64
	report *engine.OfflineReport
}

// NewContext returns a fresh experiment context.
func NewContext() *Context {
	return &Context{
		Store:     storage.NewStore(storage.DefaultArray()),
		artifacts: make(map[string]*artifactEntry),
		baselines: make(map[string]*engine.Instance),
		seed:      1,
		phases:    make(map[string]*obs.PhaseBreakdown),
		phaseTot:  make(map[string]time.Duration),
	}
}

// NextSeed hands out distinct process seeds.
func (c *Context) NextSeed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeedLocked()
}

func (c *Context) nextSeedLocked() int64 {
	c.seed++
	return c.seed * 7919
}

// Artifact runs (or reuses) the offline phase for a model.
func (c *Context) Artifact(cfg model.Config) (*medusa.Artifact, uint64, *engine.OfflineReport, error) {
	if err := c.PrefetchArtifacts([]model.Config{cfg}); err != nil {
		return nil, 0, nil, err
	}
	c.mu.Lock()
	e := c.artifacts[cfg.Name]
	c.mu.Unlock()
	return e.art, e.bytes, e.report, nil
}

// PrefetchArtifacts runs the offline phase for every not-yet-cached
// model in parallel, one worker per GOMAXPROCS — the models are
// independent, and the paper's deployment pays the offline cost once
// per model, so fleet-style sweeps (Figure 9, Table 1) fan it out.
// Seeds are assigned in configuration order before the fan-out, so the
// produced artifacts are bit-identical to a sequential run of Artifact
// over the same configs.
func (c *Context) PrefetchArtifacts(cfgs []model.Config) error {
	type job struct {
		cfg  model.Config
		seed int64
	}
	var jobs []job
	c.mu.Lock()
	seen := make(map[string]bool)
	for _, cfg := range cfgs {
		if _, ok := c.artifacts[cfg.Name]; ok || seen[cfg.Name] {
			continue
		}
		seen[cfg.Name] = true
		jobs = append(jobs, job{cfg: cfg, seed: c.nextSeedLocked()})
	}
	c.mu.Unlock()
	if len(jobs) == 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	errs := make([]error, len(jobs))
	run := func(ji int) {
		j := jobs[ji]
		art, report, err := engine.RunOffline(engine.OfflineOptions{
			Model:  j.cfg,
			Store:  c.Store,
			Seed:   j.seed,
			Clock:  vclock.New(),
			Tracer: c.Tracer,
		})
		if err != nil {
			errs[ji] = fmt.Errorf("offline phase for %s: %w", j.cfg.Name, err)
			return
		}
		c.mu.Lock()
		c.artifacts[j.cfg.Name] = &artifactEntry{art: art, bytes: report.ArtifactBytes, report: report}
		c.mu.Unlock()
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range ch {
				run(ji)
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fleetConfigs resolves the named models and runs their offline
// phases up front, as PrefetchArtifacts does.
func (c *Context) fleetConfigs(names []string) ([]model.Config, error) {
	cfgs := make([]model.Config, 0, len(names))
	for _, name := range names {
		cfg, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	if err := c.PrefetchArtifacts(cfgs); err != nil {
		return nil, err
	}
	return cfgs, nil
}

// medusaDeployments builds one Medusa deployment per model, seeded
// i+1, restoring from the context's artifact under scheduler sc.
func (c *Context) medusaDeployments(cfgs []model.Config, sc serverless.Scheduler) ([]serverless.Deployment, error) {
	deps := make([]serverless.Deployment, 0, len(cfgs))
	for i, cfg := range cfgs {
		art, size, _, err := c.Artifact(cfg)
		if err != nil {
			return nil, err
		}
		deps = append(deps, serverless.Deployment{
			Name: cfg.Name,
			Config: serverless.Config{
				Model: cfg, Strategy: engine.StrategyMedusa,
				Store: c.Store, Cache: serverless.CacheSpec{Artifact: art, ArtifactBytes: size},
				Seed:      int64(i + 1),
				Scheduler: sc,
			},
		})
	}
	return deps, nil
}

// pooled merges one per-deployment sample fleet-wide, in deployment
// order (the reservoir merge is deterministic).
func pooled(res *serverless.FleetResult, pick func(*serverless.FleetDeployment) *metrics.Sample) *metrics.Sample {
	s := &metrics.Sample{}
	for _, d := range res.PerDeployment {
		s.AddAll(pick(d))
	}
	return s
}

func ttftOf(d *serverless.FleetDeployment) *metrics.Sample      { return d.TTFT }
func coldStartOf(d *serverless.FleetDeployment) *metrics.Sample { return d.ColdStart }

// ColdStart launches an instance with the strategy, resolving the
// artifact when Medusa is requested.
func (c *Context) ColdStart(cfg model.Config, strategy engine.Strategy, runtimeInit bool) (*engine.Instance, error) {
	opts := engine.Options{
		Model:              cfg,
		Strategy:           strategy,
		Seed:               c.NextSeed(),
		Store:              c.Store,
		IncludeRuntimeInit: runtimeInit,
		Tracer:             c.Tracer,
	}
	if strategy.NeedsArtifact() {
		art, size, _, err := c.Artifact(cfg)
		if err != nil {
			return nil, err
		}
		opts.Artifact = art
		opts.ArtifactBytes = size
	}
	inst, err := engine.ColdStart(opts)
	if err != nil {
		return nil, err
	}
	c.recordPhases(strategy, inst)
	return inst, nil
}

// recordPhases folds a cold start's stage timeline into the per-strategy
// phase breakdown, attributing overlap exclusively.
func (c *Context) recordPhases(strategy engine.Strategy, inst *engine.Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strategy.String()
	pb, ok := c.phases[key]
	if !ok {
		pb = obs.NewPhaseBreakdown()
		c.phases[key] = pb
	}
	pb.AddExclusive(inst.Timeline())
	c.phaseTot[key] += inst.ColdStartDuration()
}

// RenderPhases prints the per-strategy phase breakdowns accumulated
// over every cold start the experiments performed. The per-phase sums
// equal the summed end-to-end cold-start durations exactly; any drift
// is reported (and would be a bug in the attribution).
func (c *Context) RenderPhases() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.phases) == 0 {
		return "no cold starts recorded\n"
	}
	keys := make([]string, 0, len(c.phases))
	for k := range c.phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var w strings.Builder
	for _, k := range keys {
		pb := c.phases[k]
		fmt.Fprintf(&w, "\n%s (end-to-end total %.3fs):\n", k, c.phaseTot[k].Seconds())
		w.WriteString(pb.Table())
		if drift := pb.Total() - c.phaseTot[k]; drift != 0 {
			fmt.Fprintf(&w, "WARNING: phase attribution drifted by %v\n", drift)
		}
	}
	return w.String()
}

// Baseline returns (and caches) a vanilla vLLM cold start of a model;
// several experiments read its timeline and graphs.
func (c *Context) Baseline(cfg model.Config) (*engine.Instance, error) {
	c.mu.Lock()
	inst, ok := c.baselines[cfg.Name]
	c.mu.Unlock()
	if ok {
		return inst, nil
	}
	inst, err := c.ColdStart(cfg, engine.StrategyVLLM, false)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.baselines[cfg.Name] = inst
	c.mu.Unlock()
	return inst, nil
}

// Runner is one registered experiment.
type Runner func(c *Context) (*Report, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, fn Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
	registryOrder = append(registryOrder, id)
}

// IDs lists registered experiment ids in registration order.
func IDs() []string { return append([]string(nil), registryOrder...) }

// Run executes one experiment by id.
func Run(c *Context, id string) (*Report, error) {
	fn, ok := registry[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
	}
	return fn(c)
}
