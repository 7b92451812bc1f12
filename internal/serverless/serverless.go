// Package serverless simulates the serverless inference cluster of the
// paper's §7.5: requests arrive at a router, instances scale from zero
// with strategy-dependent cold-start latency (warm containers eliminate
// runtime init, so cold start equals the loading phase), and each
// instance serves with iteration-level continuous batching. The
// discrete-event simulation reproduces the queueing dynamics behind
// Figures 10 and 11: cold starts inflate time-to-first-token tails.
//
// The package holds the simulator core: one event loop (sim.go) that
// serves every scale. RunFleet runs it as a multi-node fleet whose
// nodes front the shared artifact registry with tiered caches (§9 of
// DESIGN.md); RunMulti and Run run it as a single node without an
// artifact cache. RunFleet and RunMulti return a FleetResult, whose
// Render is the canonical text form medusa-simulate prints.
package serverless

import (
	"fmt"
	"slices"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// ConfigError reports one rejected configuration field. Callers that
// need to distinguish validation failures from simulation failures can
// errors.As on it and read the field path.
type ConfigError struct {
	// Field is the offending field's path within the configuration,
	// e.g. "Scheduler.MaxBatch" or "Workload.FollowUp.Probability".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("serverless: invalid %s: %s", e.Field, e.Reason)
}

// Workload groups the assumptions about the request stream's shape —
// everything about traffic that is not the arrival trace itself.
type Workload struct {
	// AvgContextTokens is the mean sequence context assumed for decode
	// KV-read accounting (default: ShareGPT prompt + half output).
	AvgContextTokens int
	// FollowUp, when set, turns the trace into multi-turn
	// conversations: after a request completes, the "user" reads the
	// answer and may send a follow-up whose prompt includes the
	// conversation so far — ShareGPT's actual shape.
	FollowUp *FollowUpModel
}

// Validate checks the workload sub-config, naming fields under the
// "Workload." path.
func (w Workload) Validate() error {
	if w.AvgContextTokens < 0 {
		return &ConfigError{Field: "Workload.AvgContextTokens",
			Reason: fmt.Sprintf("must be ≥ 0, got %d", w.AvgContextTokens)}
	}
	if fu := w.FollowUp; fu != nil {
		if fu.Probability < 0 || fu.Probability > 1 {
			return &ConfigError{Field: "Workload.FollowUp.Probability",
				Reason: fmt.Sprintf("must be in [0,1], got %g", fu.Probability)}
		}
		if fu.ThinkTime < 0 {
			return &ConfigError{Field: "Workload.FollowUp.ThinkTime",
				Reason: fmt.Sprintf("must be ≥ 0, got %v", fu.ThinkTime)}
		}
	}
	return nil
}

// Scheduler groups the serving policy: per-instance admission and
// iteration scheduling, and the autoscaling rules that add and retire
// instances.
type Scheduler struct {
	// MaxBatch bounds per-instance concurrency (vLLM max_num_seqs):
	// the running-sequence cap of the instance's scheduler, under
	// either policy.
	MaxBatch int
	// InstanceTarget is the outstanding-request count one instance is
	// expected to absorb before the autoscaler adds another.
	InstanceTarget int
	// IdleTimeout retires instances with no work (0 disables).
	IdleTimeout time.Duration
	// Prewarm provisions this many instances ready at time zero (no
	// cold start charged), modelling an already-running deployment —
	// Figure 11's setting, where only scale-out pays cold starts.
	Prewarm int
	// Batch selects the instance scheduler's policy (internal/sched):
	// iteration-level continuous batching when Batch.BatchTokens > 0,
	// else whole-request admission (FIFO up to MaxBatch, each prompt
	// plus output held in KV blocks from admission). Batch.KVBlocks 0
	// derives the pool from the profile's measured KV capacity.
	Batch sched.Params
}

// Validate checks the scheduler sub-config, naming fields under the
// "Scheduler." path.
func (s Scheduler) Validate() error {
	switch {
	case s.MaxBatch < 0:
		return &ConfigError{Field: "Scheduler.MaxBatch", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.MaxBatch)}
	case s.InstanceTarget < 0:
		return &ConfigError{Field: "Scheduler.InstanceTarget", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.InstanceTarget)}
	case s.IdleTimeout < 0:
		return &ConfigError{Field: "Scheduler.IdleTimeout", Reason: fmt.Sprintf("must be ≥ 0, got %v", s.IdleTimeout)}
	case s.Prewarm < 0:
		return &ConfigError{Field: "Scheduler.Prewarm", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Prewarm)}
	case s.Batch.BatchTokens < 0:
		return &ConfigError{Field: "Scheduler.Batch.BatchTokens", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Batch.BatchTokens)}
	case s.Batch.KVBlocks < 0:
		return &ConfigError{Field: "Scheduler.Batch.KVBlocks", Reason: fmt.Sprintf("must be ≥ 0, got %d", s.Batch.KVBlocks)}
	}
	return nil
}

// CacheSpec groups the materialization inputs: the Medusa artifact and
// how it reaches the instance.
type CacheSpec struct {
	// Artifact is required for strategies whose descriptor reports
	// NeedsArtifact.
	Artifact *medusa.Artifact
	// ArtifactBytes is the encoded artifact's size (what storage and
	// cache transfers charge); zero means "encode to measure".
	ArtifactBytes uint64
	// ArtifactPreloaded marks the encoded artifact as already in host
	// memory when loading begins. RunFleet sets it on a fleet with node
	// caches: the tiered cache charges the artifact fetch explicitly per
	// launch (tier- and dedup-dependent), so the template profile must
	// not also charge the storage read inside the restore stage.
	ArtifactPreloaded bool
	// Template, when set, marks the deployment's artifact as
	// template-factored (wire format v3): the registry holds the shared
	// per-architecture template plus this model's small delta, and cold
	// fetches move delta bytes instead of the full artifact. A fleet with
	// node caches registers the template once under its ID and fetches
	// it alongside the delta (cached independently, shared across sibling
	// deployments); ArtifactBytes then means the delta's encoded size.
	Template *medusa.Template
}

// ColdFetchBytes is the byte count one cold start must move for the
// artifact: ArtifactBytes when declared, otherwise measured by
// encoding — against the template (v3 delta) when template-factored,
// self-contained (v2) otherwise.
func (c CacheSpec) ColdFetchBytes() (uint64, error) {
	if c.ArtifactBytes != 0 {
		return c.ArtifactBytes, nil
	}
	if c.Artifact == nil {
		return 0, nil
	}
	var enc []byte
	var err error
	if c.Template != nil {
		enc, err = c.Artifact.EncodeDelta(c.Template)
	} else {
		enc, err = c.Artifact.Encode()
	}
	if err != nil {
		return 0, err
	}
	return uint64(len(enc)), nil
}

// SLO sets per-request latency deadlines. The zero value disables SLO
// accounting entirely; with either deadline set, the fleet (RunFleet)
// tracks the fraction of completed requests meeting every configured
// deadline (SLO attainment) as a first-class result.
type SLO struct {
	// TTFT is the time-to-first-token deadline (0 = unconstrained).
	TTFT time.Duration
	// TPOT is the time-per-output-token deadline, checked against each
	// completed request's mean inter-token gap. Only the batched
	// scheduler policy measures TPOT; whole-request admission ignores
	// this deadline.
	TPOT time.Duration
}

// Zero reports whether no deadline is configured.
func (s SLO) Zero() bool { return s == SLO{} }

// Validate checks the SLO sub-config, naming fields under the "SLO."
// path.
func (s SLO) Validate() error {
	if s.TTFT < 0 {
		return &ConfigError{Field: "SLO.TTFT", Reason: fmt.Sprintf("must be ≥ 0, got %v", s.TTFT)}
	}
	if s.TPOT < 0 {
		return &ConfigError{Field: "SLO.TPOT", Reason: fmt.Sprintf("must be ≥ 0, got %v", s.TPOT)}
	}
	return nil
}

// Config parameterizes one cluster simulation. The scalar identity of
// the deployment (model, strategy, resources, seed) lives at the top
// level; policy knobs compose from the Workload, Scheduler and Cache
// sub-configs, the first two with their own Validate under one shared
// field-path namespace.
type Config struct {
	// Model is the served model.
	Model model.Config
	// Strategy is the cold-start loading strategy.
	Strategy engine.Strategy
	// Store holds weights and artifacts.
	Store *storage.Store
	// NumGPUs bounds concurrent instances (the paper's testbed has 4).
	// Run and NewProfile read it; a run of several deployments takes the
	// GPU count from MultiConfig.NumGPUs or Fleet.GPUsPerNode instead.
	NumGPUs int
	// TPDegree shards each instance tensor-parallel across this many
	// GPUs (§8 extension). An instance then occupies TPDegree GPUs, so
	// at most NumGPUs/TPDegree instances run concurrently. 0 or 1 means
	// single-GPU instances.
	TPDegree int
	// Seed namespaces the profile instance's address space and the
	// follow-up sampling.
	Seed int64
	// RetainPerRequest keeps every per-request observation in the
	// deployment's latency samples instead of the default bounded
	// deterministic reservoir. Small runs are exact either way (the
	// reservoir only engages past metrics.DefaultReservoir observations
	// per sample); opt in when a large run needs exact quantiles and the
	// memory to hold them is acceptable.
	RetainPerRequest bool
	// Tracer, when set, records the deployment's spans: per-instance
	// cold starts with phase children, per-iteration serving spans, and
	// per-request queueing. All timestamps are simulation-virtual.
	Tracer *obs.Tracer
	// Workload describes the request stream's shape.
	Workload Workload
	// Scheduler is the serving and autoscaling policy.
	Scheduler Scheduler
	// Cache is the artifact materialization input.
	Cache CacheSpec
}

// Validate checks the configuration's invariants as-is, without
// applying defaults, and returns a *ConfigError naming the first
// offending field by its sub-config path. The zero values Validate
// accepts are the ones withDefaults later fills in.
func (c Config) Validate() error {
	switch {
	case c.NumGPUs < 0:
		return &ConfigError{Field: "NumGPUs", Reason: fmt.Sprintf("must be ≥ 0, got %d", c.NumGPUs)}
	case c.TPDegree < 0:
		return &ConfigError{Field: "TPDegree", Reason: fmt.Sprintf("must be ≥ 0, got %d", c.TPDegree)}
	}
	if err := c.Scheduler.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if !c.Strategy.Valid() {
		return &ConfigError{Field: "Strategy", Reason: fmt.Sprintf("unknown strategy %d", int(c.Strategy))}
	}
	if c.NumGPUs > 0 && c.TPDegree > c.NumGPUs {
		return &ConfigError{Field: "TPDegree",
			Reason: fmt.Sprintf("TP degree %d exceeds %d GPUs", c.TPDegree, c.NumGPUs)}
	}
	// Tensor-parallel instances materialize per-rank artifacts inside
	// engine.TPColdStart; only single-GPU artifact strategies need one
	// up front.
	if c.Strategy.NeedsArtifact() && c.Cache.Artifact == nil && c.TPDegree <= 1 {
		return &ConfigError{Field: "Cache.Artifact",
			Reason: fmt.Sprintf("%v strategy requires an artifact", c.Strategy)}
	}
	return nil
}

// FollowUpModel parameterizes conversational follow-up turns.
type FollowUpModel struct {
	// Probability of a follow-up after each completed turn.
	Probability float64
	// ThinkTime is the user's reading/typing delay before the
	// follow-up arrives.
	ThinkTime time.Duration
	// MaxTurns caps a conversation's total turns (≥1; the initial
	// request counts as turn 1).
	MaxTurns int
	// NewTokens is the fresh user input appended to the accumulated
	// context on each follow-up.
	NewTokens int
}

// withDefaults validates the raw configuration, fills zero fields with
// the paper's defaults, and re-validates the result. Any error is a
// *ConfigError.
func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.NumGPUs == 0 {
		c.NumGPUs = 4
	}
	if c.TPDegree < 1 {
		c.TPDegree = 1
	}
	if c.Scheduler.MaxBatch == 0 {
		c.Scheduler.MaxBatch = model.MaxCaptureBatch()
	}
	if c.Scheduler.InstanceTarget == 0 {
		c.Scheduler.InstanceTarget = 128
	}
	if c.Workload.AvgContextTokens == 0 {
		c.Workload.AvgContextTokens = workload.ShareGPTMeanPrompt + workload.ShareGPTMeanOutput/2
	}
	if c.Store == nil {
		c.Store = storage.NewStore(storage.DefaultArray())
	}
	return c, c.Validate()
}

// Result summarizes one simulation.
type Result struct {
	// TTFT is the time-to-first-token sample (the paper's headline
	// metric, reported at p99).
	TTFT *metrics.Sample
	// E2E is end-to-end request latency.
	E2E *metrics.Sample
	// TPOT is the time-per-output-token sample — per completed request,
	// the mean inter-token gap (last token minus first token over
	// output−1 tokens). It is recorded only under the batched scheduler
	// policy (Scheduler.Batch.BatchTokens > 0); nil otherwise.
	TPOT *metrics.Sample
	// Preemptions counts scheduler evictions under KV pressure
	// (batched policy only).
	Preemptions int
	// Completed counts finished requests.
	Completed int
	// Makespan is arrival of the first request to completion of the
	// last.
	Makespan time.Duration
	// Throughput is completed requests per second of makespan.
	Throughput float64
	// ColdStarts counts instance launches.
	ColdStarts int
	// Degraded counts launches that survived an injected fault by
	// falling back to the vanilla cold-start stages (0 without a fault
	// plan).
	Degraded int
	// PeakInstances is the maximum concurrently provisioned instances.
	PeakInstances int
	// ColdStartPhases is the exclusive per-phase attribution of every
	// cold start this deployment paid (artifact fetch, the strategy's
	// loading stages, overlap gaps). By construction its Total equals
	// ColdStartTotal exactly.
	ColdStartPhases *obs.PhaseBreakdown
	// ColdStartTotal sums the end-to-end durations of all cold starts.
	ColdStartTotal time.Duration
	// Metrics is the deployment's counter/gauge/sample registry; TTFT
	// and E2E above alias its "ttft" and "e2e" samples.
	Metrics *obs.Registry
}

// profile is the timing fingerprint of one (model, strategy) instance,
// measured once on a real engine instance and shared by every
// simulated replica.
type profile struct {
	coldStart time.Duration
	// timeline is the template cold start's observable stage layout;
	// its extent equals coldStart, which is what keeps the per-launch
	// phase attribution drift-free.
	timeline obs.Timeline
	prefill  func(int) (time.Duration, error)
	decode   func(int) (time.Duration, error)
	kvPerTok time.Duration // extra decode time per running sequence (KV reads)
	maxKVTok int
	// maxSeqLen is the model's MaxSeqLen: the engine prices a longer
	// prompt as one of this length.
	maxSeqLen int

	// Deferred-capture support (§2.4 strawman): graphBatch maps a
	// batch to its capture size, ensure lazily captures on the template
	// instance, capCost memoizes the measured one-time cost.
	deferred   bool
	graphBatch func(int) int
	ensure     func(int) (time.Duration, error)
	capCost    map[int]time.Duration

	// Hot-path memoization keyed on the simulator's call arguments.
	// The engine memoizes too, but only after re-deriving graph-batch
	// quantization and cache keys per call; these caches make the
	// steady-state per-iteration cost a single probe. Values are
	// stable: the engine's one-time lazy loads are absorbed before
	// first use (cold start or, for deferred capture, the ensure that
	// startIteration always runs before the first decode of a size).
	// Both are slices grown on demand (0 = not yet computed):
	// prefillCache is indexed by prompt length clamped at maxSeqLen,
	// stepCache by decode batch size, which MaxBatch bounds.
	prefillCache []time.Duration
	stepCache    []time.Duration
}

// prefillDur memoizes prefill by prompt length, clamped at maxSeqLen
// as the engine clamps it.
func (p *profile) prefillDur(tokens int) (time.Duration, error) {
	t := min(max(tokens, 0), p.maxSeqLen)
	if t < len(p.prefillCache) && p.prefillCache[t] != 0 {
		return p.prefillCache[t], nil
	}
	d, err := p.prefill(t)
	if err != nil {
		return 0, err
	}
	if t >= len(p.prefillCache) {
		p.prefillCache = append(p.prefillCache, make([]time.Duration, t+1-len(p.prefillCache))...)
	}
	p.prefillCache[t] = d
	return d, nil
}

// buildProfile cold-starts one template instance (or tensor-parallel
// rank group) and wraps its memoized cost accessors.
func buildProfile(cfg Config) (*profile, error) {
	// Per-sequence KV read cost at the assumed context, beyond the
	// engine's capture-calibrated baseline: ctx · hidden · 2 sides ·
	// 2 bytes · layers over HBM bandwidth; sharded TP ranks each read
	// 1/TP of it in parallel.
	m := cfg.Model
	bytesPerSeq := float64(cfg.Workload.AvgContextTokens) * float64(m.Hidden) * 2 * 2 * float64(m.Layers) / float64(cfg.TPDegree)

	if cfg.TPDegree > 1 {
		tp, err := engine.TPColdStart(engine.TPOptions{
			Model:    cfg.Model,
			Degree:   cfg.TPDegree,
			Strategy: cfg.Strategy,
			Store:    cfg.Store,
			Seed:     cfg.Seed ^ 0x7a7a,
		})
		if err != nil {
			return nil, err
		}
		bw := tp.Ranks[0].Process().Device().Config().MemBandwidth
		return &profile{
			coldStart: tp.LoadingDuration,
			timeline:  tpTimeline(tp),
			prefill:   tp.PrefillDuration,
			decode:    tp.DecodeStepDuration,
			kvPerTok:  time.Duration(bytesPerSeq / bw * float64(time.Second)),
			maxKVTok:  tp.KVRecord().NumBlocks * 16,
			maxSeqLen: m.MaxSeqLen,
			// Deferred capture is not modeled for TP instances.
			graphBatch: tp.Ranks[0].GraphBatch,
			capCost:    make(map[int]time.Duration),
		}, nil
	}

	inst, err := engine.ColdStart(engine.Options{
		Model:             cfg.Model,
		Strategy:          cfg.Strategy,
		Seed:              cfg.Seed ^ 0x7a7a,
		Store:             cfg.Store,
		Artifact:          cfg.Cache.Artifact,
		ArtifactBytes:     cfg.Cache.ArtifactBytes,
		ArtifactPreloaded: cfg.Cache.ArtifactPreloaded,
	})
	if err != nil {
		return nil, err
	}
	kvPerTok := time.Duration(bytesPerSeq / inst.Process().Device().Config().MemBandwidth * float64(time.Second))
	return &profile{
		coldStart:  inst.LoadingDuration(),
		timeline:   inst.Timeline(),
		prefill:    inst.PrefillDuration,
		decode:     inst.DecodeStepDuration,
		kvPerTok:   kvPerTok,
		maxKVTok:   inst.KVRecord().NumBlocks * 16,
		maxSeqLen:  m.MaxSeqLen,
		deferred:   cfg.Strategy.Info().DeferredCapture,
		graphBatch: inst.GraphBatch,
		ensure:     inst.EnsureGraphCaptured,
		capCost:    make(map[int]time.Duration),
	}, nil
}

// tpTimeline synthesizes the observable timeline of a tensor-parallel
// cold start: the slowest rank's stage layout with the collective
// bootstrap appended, so the extent equals TPResult.LoadingDuration
// exactly and phase attribution stays drift-free.
func tpTimeline(tp *engine.TPResult) obs.Timeline {
	slowest := 0
	for i, d := range tp.RankLoading {
		if d > tp.RankLoading[slowest] {
			slowest = i
		}
	}
	tl := slices.Clone(tp.Ranks[slowest].Timeline())
	base := tp.RankLoading[slowest]
	tl.Record("tp_sync_setup", base, base+tp.SyncSetup)
	return tl
}

// captureCost returns the one-time lazy-capture cost an instance pays
// the first time it serves a batch covered by graph size gb.
func (p *profile) captureCost(n int) (int, time.Duration, error) {
	gb := p.graphBatch(n)
	if d, ok := p.capCost[gb]; ok {
		return gb, d, nil
	}
	d, err := p.ensure(gb)
	if err != nil {
		return 0, 0, err
	}
	p.capCost[gb] = d
	return gb, d, nil
}

// decodeStep is one continuous-batching iteration for n sequences.
func (p *profile) decodeStep(n int) (time.Duration, error) {
	if n < len(p.stepCache) && p.stepCache[n] != 0 {
		return p.stepCache[n], nil
	}
	base, err := p.decode(n)
	if err != nil {
		return 0, err
	}
	d := base + time.Duration(n)*p.kvPerTok
	if n >= len(p.stepCache) {
		p.stepCache = append(p.stepCache, make([]time.Duration, n+1-len(p.stepCache))...)
	}
	p.stepCache[n] = d
	return d, nil
}

// Deployment is one model's slice of a shared cluster.
type Deployment struct {
	// Name labels the deployment in results.
	Name string
	// Config carries the model, strategy and per-deployment policies.
	// Its NumGPUs is ignored: the GPU count is pool-wide, taken from
	// MultiConfig.NumGPUs or Fleet.GPUsPerNode.
	Config Config
	// Requests is the deployment's arrival trace, in nondecreasing
	// arrival order; nil serves nothing. The run merges every
	// deployment's Requests into its one ArrivalSource (unless Fleet or
	// MultiConfig sets Arrivals) and numbers requests in fleet-wide
	// delivery order, so the IDs here are ignored.
	Requests []workload.Request
}

// MultiConfig shares one GPU pool among several deployments — the
// setting behind §2.4's observation that hot spares for every model
// type are unaffordable.
type MultiConfig struct {
	// NumGPUs is the shared pool size (default 4); it replaces every
	// deployment's Config.NumGPUs.
	NumGPUs int
	// Deployments are the co-located models.
	Deployments []Deployment
	// Arrivals, when set, supplies every deployment's traffic as one
	// pre-merged stream (nondecreasing arrival order, deployment indices
	// into Deployments) and the per-deployment Requests are ignored, as
	// for Fleet.Arrivals.
	Arrivals ArrivalSource
	// Faults, when set to a nonzero plan, injects deterministic faults
	// into every deployment's artifact-based launches: SSD read errors
	// (retried with backoff, then degrade), artifact corruption and
	// restore-validation mismatches (degrade to the vanilla cold-start
	// stages). The pool has no registry and one node, so the plan's
	// RegistryTimeout and NodeCrashes entries are ignored; RunFleet
	// exercises them. Nil or a zero plan changes nothing.
	Faults *faults.Plan
}

// RunMulti simulates several deployments contending for one GPU pool:
// the simulator core on a single node of NumGPUs GPUs (default 4),
// without an artifact cache, under the reactive autoscaler and
// launch-order dispatch.
func RunMulti(cfg MultiConfig) (*FleetResult, error) {
	if cfg.NumGPUs == 0 {
		cfg.NumGPUs = 4
	}
	return simulate(Fleet{
		Nodes:       1,
		GPUsPerNode: cfg.NumGPUs,
		Deployments: cfg.Deployments,
		Arrivals:    cfg.Arrivals,
		Faults:      cfg.Faults,
	}, nil, runOptions{})
}

// Run simulates serving one deployment's trace and returns its latency
// statistics.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serverless: empty trace")
	}
	res, err := RunMulti(MultiConfig{
		NumGPUs:     cfg.NumGPUs,
		Deployments: []Deployment{{Name: cfg.Model.Name, Config: cfg, Requests: reqs}},
	})
	if err != nil {
		return nil, err
	}
	return &res.PerDeployment[0].Result, nil
}
