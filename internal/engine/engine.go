// Package engine implements the vLLM-like serverless LLM inference
// engine the paper evaluates: the five-stage loading phase (model
// structure initialization, model weights loading, tokenizer loading,
// KV cache initialization, CUDA graph capturing), decode forwarding via
// CUDA graphs for the standard 35 batch sizes, and the four loading
// strategies compared in §7:
//
//	vLLM        — every stage synchronous (the baseline)
//	vLLM+ASYNC  — weights loading overlapped with tokenizer + KV init
//	w/o GRAPH   — capture stage removed (slower serving afterwards)
//	Medusa      — KV init and CUDA graphs restored from a materialized
//	              artifact (the paper's system)
package engine

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/kvcache"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/tokenizer"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// Strategy selects the cold-start loading strategy.
type Strategy int

const (
	// StrategyVLLM is the synchronous baseline.
	StrategyVLLM Strategy = iota
	// StrategyVLLMAsync overlaps weights loading with the tokenizer and
	// KV-init stages.
	StrategyVLLMAsync
	// StrategyNoGraph removes the capture stage; serving runs without
	// CUDA graphs.
	StrategyNoGraph
	// StrategyMedusa restores materialized state instead of profiling
	// and capturing.
	StrategyMedusa
	// StrategyCheckpoint restores a full device-state checkpoint (the
	// §9 related-work baseline): fast when the multi-gigabyte image is
	// at hand, but the image is per-<model, GPU, configuration> and
	// dwarfs Medusa's artifacts. Requires Options.CheckpointBytes from
	// a prior TakeCheckpoint.
	StrategyCheckpoint
	// StrategyDeferred is §2.4's third strawman: skip the capture stage
	// at cold start and capture each batch size lazily when a request
	// first needs it. The capture latency is not eliminated — "it
	// merely delays and disperses it across different requests".
	StrategyDeferred
)

// StrategyInfo is a strategy's behavior-carrying descriptor. Callers
// that used to switch on the enum (does this strategy need an
// artifact? which stages will its timeline show? what do I type on
// the command line?) read the descriptor instead, so adding a
// strategy means adding one table entry, not touching four switches.
type StrategyInfo struct {
	// Name is the paper's display name (what String returns).
	Name string
	// Aliases are the command-line spellings ParseStrategy accepts in
	// addition to Name.
	Aliases []string
	// Stages lists the observable cold-start stage names in timeline
	// order (StageRuntimeInit and the composed overlap structure are
	// orthogonal and not listed).
	Stages []string
	// NeedsArtifact reports that cold starts require a materialized
	// Medusa artifact (Options.Artifact).
	NeedsArtifact bool
	// NeedsCheckpoint reports that cold starts require
	// Options.CheckpointBytes from a prior TakeCheckpoint.
	NeedsCheckpoint bool
	// CapturesEagerly reports that serving begins with CUDA graphs in
	// hand — captured, restored, or checkpointed during the cold start;
	// false means serving either runs graph-less or captures lazily.
	CapturesEagerly bool
	// DeferredCapture reports the §2.4 lazy-capture strawman: graphs
	// are captured on the serving path, one batch size at a time.
	DeferredCapture bool
}

var strategyInfos = map[Strategy]StrategyInfo{
	StrategyVLLM: {
		Name:            "vLLM",
		Aliases:         []string{"vllm"},
		Stages:          []string{StageStructInit, StageWeights, StageTokenizer, StageKVInit, StageCapture},
		CapturesEagerly: true,
	},
	StrategyVLLMAsync: {
		Name:            "vLLM+ASYNC",
		Aliases:         []string{"async", "vllm+async"},
		Stages:          []string{StageStructInit, StageWeights, StageTokenizer, StageKVInit, StageCapture},
		CapturesEagerly: true,
	},
	StrategyNoGraph: {
		Name:    "w/o CUDA GRAPH",
		Aliases: []string{"nograph", "no-graph"},
		Stages:  []string{StageStructInit, StageWeights, StageTokenizer, StageKVInit},
	},
	StrategyMedusa: {
		Name:            "MEDUSA",
		Aliases:         []string{"medusa"},
		Stages:          []string{StageStructInit, StageKVInit, StageWeights, StageTokenizer, StageCapture},
		NeedsArtifact:   true,
		CapturesEagerly: true,
	},
	StrategyCheckpoint: {
		Name:            "CHECKPOINT",
		Aliases:         []string{"checkpoint"},
		Stages:          []string{StageCkptRestore},
		NeedsCheckpoint: true,
		CapturesEagerly: true,
	},
	StrategyDeferred: {
		Name:            "DEFERRED CAPTURE",
		Aliases:         []string{"deferred"},
		Stages:          []string{StageStructInit, StageWeights, StageTokenizer, StageKVInit},
		DeferredCapture: true,
	},
}

// Info returns the strategy's descriptor (the zero StrategyInfo for an
// unknown value; check Valid first when the input is untrusted).
func (s Strategy) Info() StrategyInfo { return strategyInfos[s] }

// Valid reports whether s is a known strategy.
func (s Strategy) Valid() bool {
	_, ok := strategyInfos[s]
	return ok
}

// NeedsArtifact reports whether cold starts with this strategy require
// a materialized artifact.
func (s Strategy) NeedsArtifact() bool { return strategyInfos[s].NeedsArtifact }

// String returns the strategy's display name.
func (s Strategy) String() string {
	if info, ok := strategyInfos[s]; ok {
		return info.Name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy by its display name or any of its
// command-line aliases.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range AllStrategies() {
		info := strategyInfos[s]
		if name == info.Name {
			return s, nil
		}
		for _, a := range info.Aliases {
			if name == a {
				return s, nil
			}
		}
	}
	return 0, fmt.Errorf("engine: unknown strategy %q", name)
}

// Strategies lists the strategies in the paper's comparison order.
func Strategies() []Strategy {
	return []Strategy{StrategyVLLM, StrategyVLLMAsync, StrategyNoGraph, StrategyMedusa}
}

// AllStrategies lists every known strategy in declaration order,
// including the related-work and strawman baselines.
func AllStrategies() []Strategy {
	return []Strategy{StrategyVLLM, StrategyVLLMAsync, StrategyNoGraph,
		StrategyMedusa, StrategyCheckpoint, StrategyDeferred}
}

// Stage names used in cold-start timelines.
const (
	StageRuntimeInit = "runtime_init"
	StageStructInit  = "model_struct_init"
	StageWeights     = "model_weights_loading"
	StageTokenizer   = "tokenizer_loading"
	StageKVInit      = "kv_cache_init"
	StageCapture     = "cuda_graph_capture"
	StageFirstToken  = "first_token"
	StageCkptRestore = "checkpoint_restore"
	// StageRestoreFailed is the wasted time of a Medusa restore attempt
	// that failed (corrupt artifact or validation mismatch) before the
	// instance degraded to the vanilla cold-start stages. Conservative:
	// no partial work from the failed attempt is reused.
	StageRestoreFailed = "restore_failed"
	// StageArtifactFetch is the cluster simulator's artifact-acquisition
	// phase: pulling the encoded artifact from the node's tiered cache
	// (or the remote registry) before loading begins.
	StageArtifactFetch = "artifact_fetch"
)

// Options configures a cold start.
type Options struct {
	// Model selects the model configuration.
	Model model.Config
	// Strategy selects the loading strategy.
	Strategy Strategy
	// Seed randomizes the process address space; every cold start must
	// use a distinct seed.
	Seed int64
	// Store is the SSD tier holding weights and artifacts. Nil creates
	// a private default store.
	Store *storage.Store
	// Clock, when set, advances by the composed cold-start duration
	// (the externally observable latency).
	Clock *vclock.Clock
	// CaptureSizes overrides the batch sizes to capture (default:
	// vLLM's 35).
	CaptureSizes []int
	// IncludeRuntimeInit prepends the runtime-initialization phase
	// (container + Python). The trace experiments assume a warm pool
	// and leave it off, as §7.5 does.
	IncludeRuntimeInit bool
	// Recorder, when set, records the cold start for Medusa's offline
	// analysis (forces StrategyVLLM semantics).
	Recorder *medusa.Recorder
	// Artifact supplies the materialized state for StrategyMedusa.
	Artifact *medusa.Artifact
	// ArtifactBytes is the encoded artifact size for I/O accounting
	// (0 derives an estimate from the node count).
	ArtifactBytes uint64
	// ArtifactPreloaded marks the encoded artifact as already resident
	// in host memory when loading begins — the cluster's tiered cache
	// fetched it and charged the transfer explicitly — so the restore
	// stage charges only decode, not the storage read.
	ArtifactPreloaded bool
	// CheckpointBytes is the image size for StrategyCheckpoint, from a
	// prior TakeCheckpoint.
	CheckpointBytes uint64
	// Tuning overrides calibrated cost-model knobs; nil keeps the
	// A100/Optane calibration. Used by the sensitivity-analysis
	// experiment to show conclusions survive parameter perturbation.
	Tuning *Tuning
	// TriggerMode selects how Medusa's restore loads the modules that
	// hold hidden kernels (§5).
	TriggerMode TriggerMode
	// Tracer, when set, receives the composed cold-start timeline as
	// phase-tagged spans (positioned on Clock when one is set) plus
	// internal per-stage detail spans on an
	// "engine/<model>/<strategy>/internal" lane.
	Tracer *obs.Tracer
}

// TriggerMode selects the triggering-kernels implementation.
type TriggerMode int

const (
	// TriggerFirstLayer warms up and captures the model's first layer
	// per batch size (§5.2, the paper's final design: no human effort,
	// generalizes to any batch size).
	TriggerFirstLayer TriggerMode = iota
	// TriggerHandwritten launches a curated matrix-multiplication per
	// GEMM bucket (§5.1, the paper's first approach: fewer launches,
	// but the list must be maintained by hand for every new batch
	// size/kernel selection).
	TriggerHandwritten
)

// String returns the trigger mode's command-line name.
func (m TriggerMode) String() string {
	switch m {
	case TriggerHandwritten:
		return "handwritten"
	default:
		return "first-layer"
	}
}

// Tuning exposes the cost-model knobs that most influence the
// strategy comparison. Zero fields keep their calibrated defaults.
type Tuning struct {
	// LaunchOverhead is the per-kernel CPU launch cost.
	LaunchOverhead time.Duration
	// InstantiateNodeCost is cudaGraphInstantiate's per-node cost.
	InstantiateNodeCost time.Duration
	// ModuleLoadCost is the per-module lazy-load cost.
	ModuleLoadCost time.Duration
}

func (o Options) withDefaults() (Options, error) {
	if err := o.Model.Validate(); err != nil {
		return o, err
	}
	if o.Store == nil {
		o.Store = storage.NewStore(storage.DefaultArray())
	}
	if len(o.CaptureSizes) == 0 {
		o.CaptureSizes = model.CaptureBatchSizes()
	}
	if err := checkCaptureSizes(o.CaptureSizes); err != nil {
		return o, err
	}
	info := o.Strategy.Info()
	if info.NeedsArtifact && o.Artifact == nil {
		return o, fmt.Errorf("engine: %v requires an artifact", o.Strategy)
	}
	if info.NeedsCheckpoint && o.CheckpointBytes == 0 {
		return o, fmt.Errorf("engine: %v requires CheckpointBytes from TakeCheckpoint", o.Strategy)
	}
	return o, nil
}

// checkCaptureSizes rejects a capture-size list that names a batch
// size twice (the instance would capture it twice and keep whichever
// graph came last) or holds a size below one.
func checkCaptureSizes(sizes []int) error {
	seen := make(map[int]bool, len(sizes))
	for _, b := range sizes {
		if b < 1 {
			return fmt.Errorf("engine: capture size %d is not positive", b)
		}
		if seen[b] {
			return fmt.Errorf("engine: capture size %d listed twice", b)
		}
		seen[b] = true
	}
	return nil
}

// wsPair is a bucket's pair of cuBLAS workspace buffers.
type wsPair struct {
	a, b uint64
}

// Instance is one serving instance after cold start.
type Instance struct {
	opts     Options
	track    string
	proc     *cuda.Process
	stream   *cuda.Stream
	tok      *tokenizer.Tokenizer
	timeline obs.Timeline

	weights map[string]uint64
	layers  []layerWeights // per-layer weight addresses, by layer
	io      ioSet
	args    [8]cuda.Value // launch argument buffer; see launch
	padded  []int         // capture sizes whose graphs get the padding node

	kvMgr          *kvcache.Manager
	kcache, vcache uint64
	kvRecord       medusa.KVRecord

	graphs map[int]*cuda.GraphExec
	ws     map[int]wsPair

	restorer   *medusa.Restorer
	sampleSeed uint64

	decodeDur  map[int]time.Duration
	prefillDur map[int]time.Duration
}

// DegradedReason always reports "": ColdStart never degrades a launch.
// The §4 fallback to the vanilla cold start lives in the serverless
// simulator, which degrades a launch whose restore cannot be trusted.
// The method stays because the benchmark module still reads it.
func (inst *Instance) DegradedReason() string { return "" }

// Timeline returns the cold start's stage timeline.
func (inst *Instance) Timeline() obs.Timeline { return inst.timeline }

// LoadingDuration is the loading-phase latency (everything except
// runtime init and first token).
func (inst *Instance) LoadingDuration() time.Duration {
	total := inst.timeline.Total()
	return total - inst.timeline.StageDuration(StageRuntimeInit)
}

// ColdStartDuration is the full composed cold-start latency.
func (inst *Instance) ColdStartDuration() time.Duration { return inst.timeline.Total() }

// Process exposes the underlying simulated process.
func (inst *Instance) Process() *cuda.Process { return inst.proc }

// Model returns the model configuration.
func (inst *Instance) Model() model.Config { return inst.opts.Model }

// GraphByBatch returns the captured (or restored) CUDA graph for an
// exact batch size, for inspection tooling.
func (inst *Instance) GraphByBatch(batch int) (*cuda.Graph, bool) {
	ge, ok := inst.graphs[batch]
	if !ok {
		return nil, false
	}
	return ge.Graph(), true
}

// GraphNodeTotal sums kernel nodes across the instance's CUDA graphs —
// Table 1's per-model figure when capturing the standard batch sizes.
func (inst *Instance) GraphNodeTotal() int {
	total := 0
	for _, ge := range inst.graphs {
		total += ge.Graph().NodeCount()
	}
	return total
}

// KVRecord returns the KV cache sizing in effect.
func (inst *Instance) KVRecord() medusa.KVRecord { return inst.kvRecord }

// ColdStart launches a new serving instance. Stages execute
// sequentially on the instance's private virtual clock (dependencies
// require it: capture needs weights, restore needs structure); the
// strategy then composes the stage durations into the externally
// observable timeline — overlapping what the strategy overlaps — and
// advances opts.Clock by the composed total.
func ColdStart(opts Options) (*Instance, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	mode := gpu.CostOnly
	if opts.Model.Functional {
		mode = gpu.Functional
	}
	clock := vclock.New()
	procCfg := cuda.Config{
		Seed:                opts.Seed,
		Mode:                mode,
		LaunchOverhead:      launchOverhead,
		CaptureOverhead:     captureOverhead,
		GraphLaunchOverhead: graphLaunchOverhead,
		InstantiateNodeCost: instantiateNodeCost,
	}
	if t := opts.Tuning; t != nil {
		if t.LaunchOverhead > 0 {
			procCfg.LaunchOverhead = t.LaunchOverhead
		}
		if t.InstantiateNodeCost > 0 {
			procCfg.InstantiateNodeCost = t.InstantiateNodeCost
		}
		if t.ModuleLoadCost > 0 {
			procCfg.ModuleLoadCost = t.ModuleLoadCost
		}
	}
	proc := cuda.NewProcess(kernels.NewRuntime(), clock, procCfg)
	inst := &Instance{
		opts:       opts,
		proc:       proc,
		weights:    make(map[string]uint64),
		graphs:     make(map[int]*cuda.GraphExec),
		ws:         make(map[int]wsPair),
		sampleSeed: defaultSampleSeed,
		decodeDur:  make(map[int]time.Duration),
		prefillDur: make(map[int]time.Duration),
	}
	inst.track = fmt.Sprintf("engine/%s/%s", opts.Model.Name, opts.Strategy)
	inst.padded = opts.Model.PaddedSizes(opts.CaptureSizes)
	if opts.Recorder != nil {
		proc.SetHooks(opts.Recorder.Hooks())
	}
	if opts.Strategy.NeedsArtifact() {
		rest, err := medusa.NewRestorer(proc, opts.Artifact)
		if err != nil {
			return nil, err
		}
		inst.restorer = rest
	}
	inst.stream = proc.NewStream()

	var dStruct, dWeights, dTok, dKV, dCapture time.Duration

	dStruct = clock.Span(func() { err = inst.stageStructInit() })
	if err != nil {
		return nil, fmt.Errorf("engine: struct init: %w", err)
	}
	dWeights = clock.Span(func() { err = inst.stageWeights() })
	if err != nil {
		return nil, fmt.Errorf("engine: weights loading: %w", err)
	}
	dTok = clock.Span(func() { err = inst.stageTokenizer() })
	if err != nil {
		return nil, fmt.Errorf("engine: tokenizer: %w", err)
	}
	if opts.Strategy.NeedsArtifact() {
		dKV = clock.Span(func() { err = inst.stageKVRestore() })
		if err != nil {
			return nil, fmt.Errorf("engine: KV restore: %w", err)
		}
		dCapture = clock.Span(func() { err = inst.stageGraphRestore() })
		if err != nil {
			return nil, fmt.Errorf("engine: graph restore: %w", err)
		}
	} else {
		dKV = clock.Span(func() { err = inst.stageKVInit() })
		if err != nil {
			return nil, fmt.Errorf("engine: KV init: %w", err)
		}
		if opts.Strategy.Info().CapturesEagerly {
			dCapture = clock.Span(func() { err = inst.stageCapture() })
			if err != nil {
				return nil, fmt.Errorf("engine: capture: %w", err)
			}
		}
	}

	inst.compose(dStruct, dWeights, dTok, dKV, dCapture)
	base := time.Duration(0)
	if opts.Clock != nil {
		base = opts.Clock.Now()
		opts.Clock.Advance(inst.timeline.Total())
	}
	inst.emitTimelineSpans(base)
	return inst, nil
}

// emitTimelineSpans renders the composed cold-start timeline onto the
// tracer: a root "cold_start" span holding one phase-tagged child per
// observable stage, positioned at the cold start's instant on the
// shared clock. No-op without a tracer.
func (inst *Instance) emitTimelineSpans(base time.Duration) {
	tr := inst.opts.Tracer
	if tr == nil {
		return
	}
	root := tr.StartSpan(inst.track, "cold_start", base).
		Tag("cold_start").
		Attr("strategy", inst.opts.Strategy.String()).
		Attr("model", inst.opts.Model.Name)
	for _, st := range inst.timeline {
		root.Child(st.Phase, base+st.Start).Tag(st.Phase).End(base + st.End)
	}
	root.AttrDuration("total", inst.timeline.Total())
	root.End(base + inst.timeline.Total())
}

// stageSpan opens an internal-detail span on the instance's private
// clock, on the "<track>/internal" lane. Stage functions call it to
// expose sub-steps (profiling forwardings, artifact decode, module
// triggering) that the composed timeline summarizes into one stage.
// Nil-safe: without a tracer the returned closure is a no-op.
func (inst *Instance) stageSpan(name string) func(attrs ...obs.Attr) {
	if inst.opts.Tracer == nil {
		return func(...obs.Attr) {}
	}
	sp := inst.opts.Tracer.StartSpan(inst.track+"/internal", name, inst.proc.Clock().Now())
	sp.Tag(name)
	return func(attrs ...obs.Attr) {
		for _, a := range attrs {
			sp.Attr(a.Key, a.Value)
		}
		sp.End(inst.proc.Clock().Now())
	}
}

// compose lays the measured stage durations onto the externally
// observable timeline according to the strategy.
func (inst *Instance) compose(dStruct, dWeights, dTok, dKV, dCapture time.Duration) {
	tl := &inst.timeline
	t := time.Duration(0)
	if inst.opts.IncludeRuntimeInit {
		tl.Record(StageRuntimeInit, 0, runtimeInitDuration)
		t = runtimeInitDuration
	}
	if inst.opts.Strategy != StrategyCheckpoint {
		// Checkpoint restore replaces every loading stage, including
		// structure initialization.
		tl.Record(StageStructInit, t, t+dStruct)
		t += dStruct
	}

	switch inst.opts.Strategy {
	case StrategyCheckpoint:
		// The loading stages ran internally to build a functional
		// instance, but the observable cold start is a single image
		// restore.
		d := inst.checkpointRestoreDuration(inst.opts.CheckpointBytes)
		tl.Record(StageCkptRestore, t, t+d)
		t += d
	case StrategyVLLM, StrategyNoGraph, StrategyDeferred:
		tl.Record(StageWeights, t, t+dWeights)
		t += dWeights
		tl.Record(StageTokenizer, t, t+dTok)
		t += dTok
		tl.Record(StageKVInit, t, t+dKV)
		t += dKV
		if inst.opts.Strategy == StrategyVLLM {
			tl.Record(StageCapture, t, t+dCapture)
			t += dCapture
		}
	case StrategyVLLMAsync:
		// Weights stream in parallel with tokenizer + KV init, but the
		// profiling forwarding interferes with the async copies (§7.3),
		// stretching the weights stage.
		w := time.Duration(float64(dWeights) * asyncWeightsInterference)
		tl.Record(StageWeights, t, t+w)
		tl.Record(StageTokenizer, t, t+dTok)
		tl.Record(StageKVInit, t+dTok, t+dTok+dKV)
		if other := dTok + dKV; other > w {
			t += other
		} else {
			t += w
		}
		tl.Record(StageCapture, t, t+dCapture)
		t += dCapture
	case StrategyMedusa:
		// KV init shrinks to a restore and moves before weights
		// loading, letting the restore stage (first-layer warm-up,
		// replay, instantiation) overlap the weights stream.
		tl.Record(StageKVInit, t, t+dKV)
		t += dKV
		tl.Record(StageWeights, t, t+dWeights)
		tl.Record(StageTokenizer, t, t+dTok)
		tl.Record(StageCapture, t+dTok, t+dTok+dCapture)
		if other := dTok + dCapture; other > dWeights {
			t += other
		} else {
			t += dWeights
		}
	}
	_ = t
}
