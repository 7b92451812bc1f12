package serverless

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/kvcache"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// DefaultLocalityWeight is the placement trade-off the command-line
// tools use when the caller does not set one: locality contributes up
// to this much score against a load term in [0, 1].
const DefaultLocalityWeight = 0.6

// Fleet parameterizes one run of the simulator core: deployments
// sharing a fleet of identical nodes, each fronting the shared artifact
// registry with a tiered cache. RunFleet fills its zero fields with the
// defaults documented below; RunMulti and Run run the same core as one
// node without an artifact cache.
type Fleet struct {
	// Nodes is the fleet size (default 2).
	Nodes int
	// GPUsPerNode bounds instances per node (default 4, the paper's
	// testbed as one node); it replaces every deployment's
	// Config.NumGPUs.
	GPUsPerNode int
	// Cache sizes and times each node's local tiers and selects the
	// eviction policy (default artifactcache.DefaultParams).
	Cache artifactcache.Params
	// Network times the shared artifact registry link (default
	// artifactcache.DefaultNetwork).
	Network storage.Array
	// LocalityWeight scales the placer's preference for nodes whose
	// cache holds the deployment's artifact: score = weight·locality −
	// load. 0 means pure load balancing; negative and non-finite
	// values are rejected.
	LocalityWeight float64
	// PrewarmSSD pre-pulls every deployment's artifact onto every
	// node's SSD tier before the trace starts (operator-driven warm-up,
	// charged no virtual time).
	PrewarmSSD bool
	// Seed namespaces the simulation's RNGs (follow-up sampling).
	Seed int64
	// Deployments are the co-located models, sharing the fleet.
	Deployments []Deployment
	// Tracer, when set, receives per-node cache fetch spans on
	// "storage/cache/node<N>" tracks; each deployment's cold-start,
	// iteration and queueing spans go to its Config.Tracer.
	Tracer *obs.Tracer
	// Arrivals, when set, streams the whole fleet's traffic and the
	// deployments' Requests are ignored; when nil, the run merges the
	// deployments' Requests into one stream. Either way the run reads
	// the stream ahead of the event loop into a fixed ring, on a
	// goroutine of its own (see ArrivalSource for the bound and the
	// concurrency contract), so memory stays O(active requests) however
	// long the trace. Each emitted deployment index must be valid and
	// arrivals must be nondecreasing.
	Arrivals ArrivalSource
	// Autoscaler decides how many instances each deployment keeps live,
	// consulted at every control tick (arrival, iteration end, idle
	// retirement, node crash). Nil selects the reactive baseline, which
	// reproduces the legacy autoscaler byte-for-byte. A policy that
	// implements autoscale.Horizon is asked again for a deployment only
	// when the deployment's outstanding or live count changed or the
	// horizon it gave for its last answer passed; a policy without it,
	// wrappers included, is asked at every tick. A stateful policy
	// (autoscale.NewPredictive) must not be shared across runs.
	Autoscaler autoscale.Policy
	// Router orders each deployment's ready instances for dispatch by
	// score (queue depth, KV headroom, artifact locality, predicted
	// TTFT), ties broken by lowest instance id. Nil keeps the legacy
	// launch-order walk, byte-identical to before routing was pluggable.
	Router router.Policy
	// SLO, when nonzero, enables per-request deadline accounting: each
	// deployment reports how many completed requests met every
	// configured deadline, and the result carries fleet-wide SLO
	// attainment. The zero value changes nothing.
	SLO SLO
	// Faults, when holding a nonzero plan, injects deterministic faults
	// (artifact corruption, registry fetch timeouts, SSD read errors,
	// restore-validation mismatches, node crashes) into the run. Every
	// injected fault is survivable: launches degrade to the vanilla
	// cold-start stages and crashed nodes' work is re-placed. A nil or
	// zero plan leaves the simulation bit-identical to a fault-free
	// build. Node crashes must name nodes of the fleet and leave one
	// standing. See FAILURES.md for the catalog.
	Faults *faults.Plan
}

// withDefaults fills the fleet defaults and rejects configurations the
// fleet cannot run.
func (f Fleet) withDefaults() (Fleet, error) {
	if f.Nodes == 0 {
		f.Nodes = 2
	}
	if f.GPUsPerNode == 0 {
		f.GPUsPerNode = 4
	}
	if f.Nodes < 0 || f.GPUsPerNode < 0 {
		return f, fmt.Errorf("serverless: Nodes %d and GPUsPerNode %d must be positive", f.Nodes, f.GPUsPerNode)
	}
	if !(f.LocalityWeight >= 0) || math.IsInf(f.LocalityWeight, 1) {
		return f, fmt.Errorf("serverless: LocalityWeight must be finite and ≥ 0, got %g", f.LocalityWeight)
	}
	if err := f.SLO.Validate(); err != nil {
		return f, err
	}
	if f.Cache == (artifactcache.Params{}) {
		f.Cache = artifactcache.DefaultParams()
	}
	if f.Network == (storage.Array{}) {
		f.Network = artifactcache.DefaultNetwork()
	}
	if f.Faults != nil {
		if err := f.Faults.Validate(); err != nil {
			return f, &ConfigError{Field: "Faults", Reason: err.Error()}
		}
		crashed := make(map[int]bool)
		for _, nc := range f.Faults.NodeCrashes {
			if nc.Node >= f.Nodes {
				return f, fmt.Errorf("serverless: fault plan crashes node %d of a %d-node fleet", nc.Node, f.Nodes)
			}
			crashed[nc.Node] = true
		}
		if len(crashed) >= f.Nodes {
			return f, fmt.Errorf("serverless: fault plan crashes all %d nodes; at least one must survive", f.Nodes)
		}
	}
	return f, nil
}

// FleetResult aggregates one run of the simulator core.
type FleetResult struct {
	// Config echoes the normalized configuration the run used.
	Config Fleet
	// PerDeployment holds each deployment's statistics, in
	// configuration order.
	PerDeployment []*FleetDeployment
	// PerNode holds each node's placement and cache statistics.
	PerNode []NodeResult
	// Cache aggregates every node's cache traffic.
	Cache artifactcache.Stats
	// Metrics is the fleet-wide registry the node caches count into
	// (cache_ram_hits, cache_misses, …), as do crashes, requeues and
	// degraded launches.
	Metrics *obs.Registry
	// TotalColdStarts counts launches across deployments.
	TotalColdStarts int
	// Degraded counts launches that survived an injected fault by
	// degrading to the vanilla cold-start stages.
	Degraded int
	// Requeued counts requests re-placed after their node crashed.
	Requeued int
	// NodeCrashes counts nodes the fault plan killed.
	NodeCrashes int
	// GPUSeconds is total provisioned GPU time (busy or idle) across the
	// fleet — the cost side of the hot-spare trade-off.
	GPUSeconds float64
	// NodeSeconds is the fleet's cost: the summed time each node spent
	// hosting at least one instance (nodes idle end to end cost
	// nothing). Always computed; it is the denominator predictive
	// autoscaling is judged against.
	NodeSeconds float64
	// SLOMet counts completed requests fleet-wide that met every
	// configured deadline (0 when the SLO is zero).
	SLOMet int
	// Completed counts finished requests fleet-wide.
	Completed int
	// Makespan spans simulation start to the last completion.
	Makespan time.Duration
	// Work counts what the simulator core did to produce the result.
	Work Work
}

// SLOAttainment returns the fleet-wide fraction of completed requests
// that met every configured deadline (0 when nothing completed).
func (r *FleetResult) SLOAttainment() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SLOMet) / float64(r.Completed)
}

// Work counts the simulator core's own work in one run: deterministic
// tallies that, unlike wall time, do not depend on the host. They sit
// outside Metrics, so rendered results do not change with them.
//
// The event counts are popped events by kind. Every popped event is
// live: a moved or cancelled instance event never pops.
type Work struct {
	// Arrivals counts arrival events (initial requests and follow-ups).
	Arrivals int
	// Readies counts instance-ready events.
	Readies int
	// IterationEnds counts iteration-end events. A coalesced decode run
	// is one event for many steps, so this trails Iterations.
	IterationEnds int
	// Iterations counts the iteration steps simulated.
	Iterations int
	// IdleChecks counts idle-retirement checks.
	IdleChecks int
	// Crashes counts node-crash events.
	Crashes int
	// Desired counts autoscale Policy.Desired calls.
	Desired int
	// Retain counts autoscale Retainer.Retain calls.
	Retain int
	// DispatchSteps counts instances the dispatch walks visited.
	DispatchSteps int
	// Scores counts router Score calls: the candidates of every ranking.
	Scores int
	// HeapMax is the event queue's high-water mark.
	HeapMax int
}

// Events sums the popped events over every kind.
func (w *Work) Events() int {
	return w.Arrivals + w.Readies + w.IterationEnds + w.IdleChecks + w.Crashes
}

// Render lists the counters, each also per request when requests > 0.
func (w *Work) Render(requests int) string {
	var b strings.Builder
	row := func(name string, v int) {
		if requests > 0 {
			fmt.Fprintf(&b, "work %-16s %12d  %10.3f/req\n", name, v, float64(v)/float64(requests))
			return
		}
		fmt.Fprintf(&b, "work %-16s %12d\n", name, v)
	}
	row("events", w.Events())
	row("arrivals", w.Arrivals)
	row("readies", w.Readies)
	row("iteration_ends", w.IterationEnds)
	row("iterations", w.Iterations)
	row("idle_checks", w.IdleChecks)
	row("crashes", w.Crashes)
	row("desired", w.Desired)
	row("retain", w.Retain)
	row("dispatch_steps", w.DispatchSteps)
	row("scores", w.Scores)
	fmt.Fprintf(&b, "work %-16s %12d\n", "heap_max", w.HeapMax)
	return b.String()
}

// FleetDeployment is one deployment's slice of a fleet outcome: its
// single-pool Result plus the figures only a fleet reports.
type FleetDeployment struct {
	Result
	// Name labels the deployment.
	Name string
	// ColdStart samples each launch's end-to-end provisioning latency
	// (artifact fetch, then loading); nil on nodes without a cache.
	ColdStart *metrics.Sample
	// SLOMet counts completed requests that met every configured
	// deadline (0 when the SLO is zero).
	SLOMet int
}

// NodeResult is one node's share of a fleet outcome.
type NodeResult struct {
	// ID is the node index.
	ID int
	// Launches counts instances placed on the node.
	Launches int
	// Crashed reports whether a fault plan killed the node mid-run.
	Crashed bool
	// Cache is the node's tiered-cache traffic (zero without a cache).
	Cache artifactcache.Stats
}

// artifactCacheKey names a deployment's artifact in the registry and
// node caches — keyed by (model, strategy) so distinct artifact-based
// strategies of one model cache independently.
func artifactCacheKey(modelName string, strategy engine.Strategy) string {
	return engine.ArtifactKey(modelName) + "@" + strategy.String()
}

// RunFleet runs the simulator core on a fleet whose nodes front the
// shared artifact registry with tiered caches. It fills the fleet
// defaults and rejects configurations the fleet cannot run.
func RunFleet(f Fleet) (*FleetResult, error) { return runFleet(f, runOptions{}) }

// runFleet is RunFleet with the loop's reference forms selectable.
func runFleet(f Fleet, opts runOptions) (*FleetResult, error) {
	f, err := f.withDefaults()
	if err != nil {
		return nil, err
	}
	return simulate(f, artifactcache.NewRegistry(f.Network), opts)
}

// simulate runs the simulator core. A nil registry gives the nodes no
// artifact cache: the artifact read from storage stays inside the
// restore stage and the fault plan's RegistryTimeout and NodeCrashes
// entries are ignored — the single pool. It prepares every deployment
// once — defaults, the profile and the vanilla fallback profile, the
// artifact's registry entry or storage-read cost, the scheduler's KV
// pool, instruments — merges the traffic, and runs the event loop
// with the arrival source read ahead on a goroutine of its own, which
// it stops and joins before returning.
func simulate(f Fleet, registry *artifactcache.Registry, opts runOptions) (*FleetResult, error) {
	if len(f.Deployments) == 0 {
		return nil, fmt.Errorf("serverless: no deployments")
	}
	sim := &simulation{cfg: f, opts: opts, reg: obs.NewRegistry(), registry: registry, scaler: f.Autoscaler, router: f.Router}
	sim.events.Tie = pushOrder
	if sim.scaler == nil {
		sim.scaler = autoscale.NewReactive()
	}
	sim.horizon, _ = sim.scaler.(autoscale.Horizon)
	if f.Faults != nil {
		inj, err := faults.NewInjector(*f.Faults)
		if err != nil {
			return nil, err
		}
		sim.inj = inj // nil for a zero plan: the fault paths vanish
	}
	for i := 0; i < f.Nodes; i++ {
		n := &nodeState{id: i}
		if sim.registry != nil {
			n.cache = artifactcache.NewNodeCache(fmt.Sprintf("node%d", i), f.Cache, sim.registry)
			n.cache.SetObs(f.Tracer, sim.reg)
			n.cache.SetFaults(sim.inj)
		}
		sim.nodes = append(sim.nodes, n)
	}

	for di, dep := range f.Deployments {
		d, err := sim.prepare(di, dep)
		if err != nil {
			return nil, err
		}
		sim.deps = append(sim.deps, d)
	}

	src := f.Arrivals
	if src == nil {
		perDep := make([]workload.Source, len(f.Deployments))
		for di, dep := range f.Deployments {
			perDep[di] = workload.NewSlice(dep.Requests)
		}
		src = MergeArrivals(perDep)
	}
	sim.src = startReadAhead(src)
	defer sim.src.close()

	if sim.registry != nil && f.PrewarmSSD {
		// Sorted keys: Preload order must not depend on map iteration.
		keys := sim.registry.Names()
		for _, n := range sim.nodes {
			for _, k := range keys {
				if err := n.cache.Preload(k); err != nil {
					return nil, err
				}
			}
		}
	}
	return sim.run()
}

// prepare builds deployment di's simulation state.
func (s *simulation) prepare(di int, dep Deployment) (*depState, error) {
	dcfg := dep.Config
	dcfg.NumGPUs = s.cfg.GPUsPerNode
	// Tensor-parallel instances materialize per-rank artifacts inside the
	// engine, so only single-GPU artifact strategies read one per launch.
	reads := dcfg.Strategy.NeedsArtifact() && dcfg.TPDegree <= 1
	if s.registry != nil {
		// The node cache charges each launch's artifact fetch explicitly
		// (tier- and dedup-dependent), so the profile must not also bake
		// the storage read into the restore stage.
		dcfg.Cache.ArtifactPreloaded = reads
	}
	dcfg, err := dcfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("serverless: deployment %d (%s): %w", di, dep.Name, err)
	}
	prof, err := buildProfile(dcfg)
	if err != nil {
		return nil, fmt.Errorf("serverless: profiling %s: %w", dep.Name, err)
	}
	name := dep.Name
	if name == "" {
		name = fmt.Sprintf("deployment-%d", di)
	}
	// An unset KV pool inherits the instance's measured KV capacity.
	if dcfg.Scheduler.Batch.KVBlocks == 0 {
		dcfg.Scheduler.Batch.KVBlocks = prof.maxKVTok / kvcache.TokensPerBlock
	}
	d := &depState{
		cfg:  dcfg,
		prof: prof,
		name: name,
		// The predictive autoscaler scales ahead by the launch lead time:
		// the profile's measured cold start (placement may shave the
		// fetch, but the loading stages dominate).
		provLatency: prof.coldStart,
		askedOut:    -1,
		reg:         obs.NewRegistry(),
		phases:      obs.NewPhaseBreakdown(),
		rng:         rand.New(rand.NewSource(s.cfg.Seed ^ dcfg.Seed ^ 0x5eed ^ int64(di))),
	}
	if reads && (s.registry != nil || s.inj != nil) {
		size, err := dcfg.Cache.ColdFetchBytes()
		if err != nil {
			return nil, fmt.Errorf("serverless: encoding %s artifact: %w", dep.Name, err)
		}
		if s.registry != nil {
			d.key = artifactCacheKey(dcfg.Model.Name, dcfg.Strategy)
			s.registry.RegisterSized(d.key, size)
			if tmpl := dcfg.Cache.Template; tmpl != nil {
				// The shared template registers once under its own ID
				// (unsuffixed — every strategy and sibling model resolves
				// the same object); re-registration by later deployments
				// is idempotent.
				d.tmplKey = tmpl.ID()
				s.registry.RegisterSized(d.tmplKey, uint64(len(tmpl.Encode())))
			}
		} else {
			// Without a cache the launch reads the artifact from storage:
			// one read attempt costs the full transfer.
			d.key = dcfg.Model.Name + "@" + dcfg.Strategy.String()
			d.artRead = dcfg.Store.Array().ReadDuration(size)
		}
	}
	if reads && s.inj != nil {
		// Under a nonzero fault plan, artifact-based deployments get a
		// vanilla fallback profile so a failed or untrusted restore
		// degrades instead of aborting (§4's fallback path). The fallback
		// reads weights from the model store, not the artifact.
		fcfg := dcfg
		fcfg.Strategy = engine.StrategyVLLM
		fcfg.Cache = CacheSpec{}
		d.fallback, err = buildProfile(fcfg)
		if err != nil {
			return nil, fmt.Errorf("serverless: profiling %s fallback: %w", dep.Name, err)
		}
	}
	if dcfg.RetainPerRequest {
		d.reg.RetainSamples()
	}
	d.bindInstruments()
	if s.registry != nil {
		d.sColdStart = d.reg.Sample("cold_start")
	}
	if !s.cfg.SLO.Zero() {
		d.cSLOMet = d.reg.Counter("slo_met")
	}
	return d, nil
}
