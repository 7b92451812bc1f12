package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
	"github.com/medusa-repro/medusa/internal/workload"
)

// params sizes one workload. Scale 1 is the benchmark; tests run toy
// sizes by shrinking every virtual duration and model list.
type params struct {
	seed  int64
	scale float64
}

func (p params) dur(d time.Duration) time.Duration { return time.Duration(float64(d) * p.scale) }

// models keeps a scale-sized prefix of names, at least least of them.
func (p params) models(names []string, least int) []string {
	n := int(math.Ceil(float64(len(names)) * p.scale))
	return names[:min(len(names), max(n, least))]
}

// workloadDef is one benchmark workload: setup builds its inputs from
// the seed, and the returned prepared value runs it.
type workloadDef struct {
	name  string
	setup func(p params, tr *tracer) (*prepared, error)
}

// prepared is a workload with its inputs built.
type prepared struct {
	// attempted counts the ops one iteration attempts: requests in the
	// generated trace, or models on offline-zoo.
	attempted int
	// work holds the per-layer counts setup itself measures (artifact
	// sizes).
	work map[string]float64
	// iterate runs one iteration. A non-nil tracer records spans and
	// wraps the pluggable seams in call counters.
	iterate func(tr *tracer) (outcome, error)
}

// outcome is one iteration's output.
type outcome struct {
	// completed counts ops that finished and passed their checks.
	completed int
	// digest fingerprints the rendered output; every iteration of a run
	// must reproduce the warm-up's.
	digest [sha256.Size]byte
	// work holds the iteration's work.* and sim.* counts.
	work map[string]float64
}

// The workloads, in the order the benchmark runs them. BENCHMARK.json
// and README.md record why each exists.
var workloads = []workloadDef{
	{"fleet-churn", setupFleetChurn},
	{"fleet-diurnal", setupFleetDiurnal},
	{"pool-burst", setupPoolBurst},
	{"offline-zoo", setupOfflineZoo},
}

// fleetModels is the cluster test fixture's ten-model zoo order.
var fleetModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B", "Yi-6B",
	"Falcon-7B", "Llama2-13B", "Qwen1.5-4B", "Qwen1.5-14B", "Yi-9B",
}

// materialized is one model's offline-phase output.
type materialized struct {
	cfg   model.Config
	art   *medusa.Artifact
	bytes uint64 // encoded v2 size
}

// materialize runs the offline phase for each named model into store.
func materialize(store *storage.Store, names []string, seed int64, tr *tracer) ([]materialized, error) {
	out := make([]materialized, len(names))
	for i, name := range names {
		cfg, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		end := tr.begin("offline")
		art, rep, err := engine.RunOffline(engine.OfflineOptions{
			Model: cfg, Store: store, Seed: seed*100 + int64(i), Parallelism: 1,
		})
		end()
		if err != nil {
			return nil, fmt.Errorf("offline phase for %s: %w", name, err)
		}
		out[i] = materialized{cfg: cfg, art: art, bytes: rep.ArtifactBytes}
	}
	return out, nil
}

// countArrivals drains one freshly seeded stream: the number of
// requests every iteration's identically seeded stream will attempt.
func countArrivals(newSource func() (serverless.ArrivalSource, error), tr *tracer) (int, error) {
	src, err := newSource()
	if err != nil {
		return 0, err
	}
	end := tr.begin("tracegen")
	n := 0
	for {
		if _, _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	end()
	if err := src.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("generated trace is empty")
	}
	return n, nil
}

// timeProfiles times serverless.NewProfile per deployment, called
// directly with the GPU count and artifact residency the simulator
// would use, so the traced run shows the per-Run profile build.
func timeProfiles(deps []serverless.Deployment, gpus int, preloaded bool, tr *tracer) error {
	if tr == nil {
		return nil
	}
	for _, d := range deps {
		cfg := d.Config
		cfg.NumGPUs = gpus
		cfg.Cache.ArtifactPreloaded = preloaded
		end := tr.begin("newprofile")
		_, err := serverless.NewProfile(cfg)
		end()
		if err != nil {
			return fmt.Errorf("profiling %s: %w", d.Name, err)
		}
	}
	return nil
}

// artifactWork records the artifact sizes a workload serves.
func artifactWork(arts []materialized, deltas []uint64) map[string]float64 {
	var full, delta float64
	for i, a := range arts {
		full += float64(a.bytes)
		if deltas != nil {
			delta += float64(deltas[i])
		}
	}
	w := map[string]float64{"work.wire_kb_per_model": full / float64(len(arts)) / 1024}
	if delta > 0 {
		w["work.delta_ratio"] = full / delta
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runCluster runs one fleet simulation and fingerprints its Result.
func runCluster(cfg cluster.Config, attempted int, tr *tracer) (outcome, error) {
	end := tr.begin("run")
	res, err := cluster.Run(cfg)
	end()
	if err != nil {
		return outcome{}, err
	}
	ttft, cold := &metrics.Sample{}, &metrics.Sample{}
	preemptions := 0
	for _, d := range res.PerDeployment {
		ttft.AddAll(d.TTFT)
		cold.AddAll(d.ColdStart)
		preemptions += d.Preemptions
	}
	st := res.Cache
	perK := 1000 / float64(attempted)
	return outcome{
		completed: res.Completed,
		digest:    sha256.Sum256([]byte(res.Render())),
		work: map[string]float64{
			"work.cold_starts_per_kreq": float64(res.TotalColdStarts) * perK,
			"work.cache_hit_ratio":      st.HitRate(),
			"work.cache_misses":         float64(st.Misses),
			"work.cache_coalesced":      float64(st.Coalesced),
			"work.cache_evictions":      float64(st.RAMEvictions + st.SSDEvictions),
			"work.cache_mb_fetched":     float64(st.BytesFetched) / (1 << 20),
			"work.preemptions_per_kreq": float64(preemptions) * perK,
			"work.slo_attainment":       res.SLOAttainment(),
			"work.node_seconds":         res.NodeSeconds,
			"sim.ttft_p99_ms":           ms(ttft.P99()),
			"sim.cold_start_ms":         ms(cold.Mean()),
		},
	}, nil
}

// setupFleetChurn: ten self-contained (v2) Medusa deployments on a
// 4×8-GPU fleet with tight cost-aware cache tiers, streamed Zipf
// traffic, reactive scaling and launch-order dispatch.
func setupFleetChurn(p params, tr *tracer) (*prepared, error) {
	store := storage.NewStore(storage.DefaultArray())
	arts, err := materialize(store, p.models(fleetModels, 2), p.seed, tr)
	if err != nil {
		return nil, err
	}
	deps := make([]serverless.Deployment, len(arts))
	for i, a := range arts {
		deps[i] = serverless.Deployment{Name: a.cfg.Name, Config: serverless.Config{
			Model: a.cfg, Strategy: engine.StrategyMedusa, Store: store,
			Cache:     serverless.CacheSpec{Artifact: a.art, ArtifactBytes: a.bytes},
			Seed:      int64(i + 1),
			Scheduler: serverless.Scheduler{IdleTimeout: 250 * time.Millisecond},
		}}
	}
	cache := artifactcache.DefaultParams()
	cache.RAMBytes, cache.SSDBytes, cache.Policy = 3<<20, 6<<20, artifactcache.PolicyCostAware
	arrivals := func() (serverless.ArrivalSource, error) {
		src, err := workload.NewPoisson(workload.TraceConfig{
			Seed: p.seed, RPS: 100, Duration: p.dur(time.Hour), MeanOutput: 8, MaxOutput: 16,
		})
		if err != nil {
			return nil, err
		}
		return cluster.ZipfArrivals(src, len(deps), p.seed+1, 1.2)
	}
	n, err := countArrivals(arrivals, tr)
	if err != nil {
		return nil, err
	}
	if err := timeProfiles(deps, 8, true, tr); err != nil {
		return nil, err
	}
	return &prepared{attempted: n, work: artifactWork(arts, nil), iterate: func(tr *tracer) (outcome, error) {
		src, err := arrivals()
		if err != nil {
			return outcome{}, err
		}
		cfg := cluster.Config{
			Nodes: 4, GPUsPerNode: 8, Cache: cache, LocalityWeight: 0.8, Seed: p.seed,
			Deployments: deps, Arrivals: tr.source(src),
		}
		if tr != nil {
			// A nil Autoscaler means reactive; name it so it can be wrapped.
			cfg.Autoscaler = tr.scaler(autoscale.NewReactive())
		}
		return runCluster(cfg, n, tr)
	}}, nil
}

// setupFleetDiurnal: four template-factored (v3) deployments in batched
// execution mode under diurnal multi-tenant traffic, predictive scaling,
// score routing and an SLO.
func setupFleetDiurnal(p params, tr *tracer) (*prepared, error) {
	store := storage.NewStore(storage.DefaultArray())
	arts, err := materialize(store, p.models(fleetModels[:4], 2), p.seed, tr)
	if err != nil {
		return nil, err
	}
	cfgs := make([]model.Config, len(arts))
	list := make([]*medusa.Artifact, len(arts))
	for i, a := range arts {
		cfgs[i], list[i] = a.cfg, a.art
	}
	end := tr.begin("templates")
	tmpls, err := engine.BuildFleetTemplates(store, vclock.New(), cfgs, list)
	end()
	if err != nil {
		return nil, err
	}
	deps := make([]serverless.Deployment, len(arts))
	deltas := make([]uint64, len(arts))
	for i, a := range arts {
		tmpl := tmpls[a.cfg.Family]
		end := tr.begin("delta_encode")
		delta, err := a.art.EncodeDelta(tmpl)
		end()
		if err != nil {
			return nil, fmt.Errorf("delta-encoding %s: %w", a.cfg.Name, err)
		}
		deltas[i] = uint64(len(delta))
		deps[i] = serverless.Deployment{Name: a.cfg.Name, Config: serverless.Config{
			Model: a.cfg, Strategy: engine.StrategyMedusa, Store: store,
			Cache: serverless.CacheSpec{Artifact: a.art, ArtifactBytes: deltas[i], Template: tmpl},
			Seed:  int64(i + 1),
			Scheduler: serverless.Scheduler{
				IdleTimeout: 2 * time.Second,
				Batch:       sched.Params{BatchTokens: 512, KVBlocks: 256, ChunkedPrefill: true},
			},
		}}
	}
	// Short burst sojourns give ~150 bursts per run, so the request count
	// varies across seeds by under 1% rather than 2%.
	traffic := workload.DiurnalConfig{
		Seed: p.seed, BaseRPS: 440, Amplitude: 0.8, Period: time.Minute,
		BurstFactor: 2, MeanBurst: time.Second, MeanCalm: 3 * time.Second,
		Duration:  p.dur(10 * time.Minute),
		MaxPrompt: 512, MeanOutput: 8, MaxOutput: 16,
	}
	arrivals := func() (serverless.ArrivalSource, error) {
		srcs, err := workload.DiurnalFleet(traffic, len(deps), 1.2)
		if err != nil {
			return nil, err
		}
		return serverless.MergeArrivals(srcs), nil
	}
	n, err := countArrivals(arrivals, tr)
	if err != nil {
		return nil, err
	}
	if err := timeProfiles(deps, 8, true, tr); err != nil {
		return nil, err
	}
	return &prepared{attempted: n, work: artifactWork(arts, deltas), iterate: func(tr *tracer) (outcome, error) {
		src, err := arrivals()
		if err != nil {
			return outcome{}, err
		}
		// Predictive policies are stateful: one per run.
		scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: 2 * time.Second})
		if err != nil {
			return outcome{}, err
		}
		return runCluster(cluster.Config{
			Nodes: 4, GPUsPerNode: 8, Seed: p.seed,
			Deployments: deps, Arrivals: tr.source(src),
			Autoscaler: tr.scaler(scaler),
			Router:     tr.router(&router.Scored{}),
			SLO:        serverless.SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond},
		}, n, tr)
	}}, nil
}

// setupPoolBurst: one Medusa deployment on a single 64-GPU pool under a
// bursty trace — the single-pool simulator's event loop.
func setupPoolBurst(p params, tr *tracer) (*prepared, error) {
	store := storage.NewStore(storage.DefaultArray())
	arts, err := materialize(store, []string{"Qwen1.5-0.5B"}, p.seed, tr)
	if err != nil {
		return nil, err
	}
	a := arts[0]
	const gpus = 64
	dep := serverless.Deployment{Name: a.cfg.Name, Config: serverless.Config{
		Model: a.cfg, Strategy: engine.StrategyMedusa, Store: store,
		Cache:     serverless.CacheSpec{Artifact: a.art, ArtifactBytes: a.bytes},
		Seed:      1,
		Scheduler: serverless.Scheduler{InstanceTarget: 8, IdleTimeout: 250 * time.Millisecond},
	}}
	burst := workload.BurstConfig{
		Seed: p.seed, BaseRPS: 40, BurstRPS: 600,
		Period: 30 * time.Second, BurstLen: 5 * time.Second,
		Duration: p.dur(100 * time.Minute), MeanOutput: 8,
	}
	arrivals := func() (serverless.ArrivalSource, error) {
		src, err := workload.NewBursty(burst)
		if err != nil {
			return nil, err
		}
		return serverless.MergeArrivals([]workload.Source{src}), nil
	}
	n, err := countArrivals(arrivals, tr)
	if err != nil {
		return nil, err
	}
	if err := timeProfiles([]serverless.Deployment{dep}, gpus, false, tr); err != nil {
		return nil, err
	}
	return &prepared{attempted: n, work: artifactWork(arts, nil), iterate: func(tr *tracer) (outcome, error) {
		src, err := arrivals()
		if err != nil {
			return outcome{}, err
		}
		end := tr.begin("run")
		// RunMulti with one deployment is what serverless.Run calls; it
		// takes the trace as a stream instead of a slice.
		multi, err := serverless.RunMulti(serverless.MultiConfig{
			NumGPUs: gpus, Deployments: []serverless.Deployment{dep}, Arrivals: tr.source(src),
		})
		end()
		if err != nil {
			return outcome{}, err
		}
		res := multi.PerDeployment[0]
		cold := time.Duration(0)
		if res.ColdStarts > 0 {
			cold = res.ColdStartTotal / time.Duration(res.ColdStarts)
		}
		return outcome{
			completed: res.Completed,
			digest:    sha256.Sum256([]byte(res.Metrics.Render() + res.ColdStartPhases.Table())),
			work: map[string]float64{
				"work.cold_starts_per_kreq": float64(res.ColdStarts) * 1000 / float64(n),
				"work.preemptions_per_kreq": float64(res.Preemptions) * 1000 / float64(n),
				"sim.ttft_p99_ms":           ms(res.TTFT.P99()),
				"sim.cold_start_ms":         ms(cold),
			},
		}, nil
	}}, nil
}

// setupOfflineZoo: the materialize → restore path over the model zoo,
// one model at a time. Its inputs are the model configurations alone.
func setupOfflineZoo(p params, _ *tracer) (*prepared, error) {
	zoo := model.Zoo()
	names := make([]string, len(zoo))
	for i, c := range zoo {
		names[i] = c.Name
	}
	cfgs := zoo[:len(p.models(names, 1))]
	return &prepared{attempted: len(cfgs), iterate: func(tr *tracer) (outcome, error) {
		return offlineZoo(cfgs, p.seed, tr), nil
	}}, nil
}

// offlineZoo materializes every model into a fresh store, checks the v2
// Encode→Decode→Encode round trip, factors the artifacts into fleet
// templates, checks that each v3 delta decodes back to the v2 bytes,
// and restores each model with a Medusa cold start. A model whose
// checks fail, or whose restore errors or degrades, is not completed.
func offlineZoo(cfgs []model.Config, seed int64, tr *tracer) outcome {
	store := storage.NewStore(storage.DefaultArray())
	arts := make([]*medusa.Artifact, len(cfgs))
	wires := make([][]byte, len(cfgs))
	ok := make([]bool, len(cfgs))
	fail := func(i int, err error) {
		ok[i] = false
		fmt.Fprintf(os.Stderr, "offline-zoo: %s: %v\n", cfgs[i].Name, err)
	}
	for i, cfg := range cfgs {
		end := tr.begin("offline")
		art, _, err := engine.RunOffline(engine.OfflineOptions{
			Model: cfg, Store: store, Seed: seed*100 + int64(i), Parallelism: 1,
		})
		end()
		if err != nil {
			fail(i, err)
			continue
		}
		end = tr.begin("encode")
		wire, err := art.Encode()
		end()
		if err != nil {
			fail(i, err)
			continue
		}
		end = tr.begin("decode")
		back, err := medusa.Decode(wire)
		end()
		if err == nil {
			var again []byte
			if again, err = back.Encode(); err == nil && !bytes.Equal(wire, again) {
				err = fmt.Errorf("v2 Encode→Decode→Encode is not byte-identical")
			}
		}
		if err != nil {
			fail(i, err)
			continue
		}
		arts[i], wires[i], ok[i] = art, wire, true
	}

	var tcfgs []model.Config
	var tarts []*medusa.Artifact
	for i := range cfgs {
		if ok[i] {
			tcfgs, tarts = append(tcfgs, cfgs[i]), append(tarts, arts[i])
		}
	}
	end := tr.begin("templates")
	tmpls, err := engine.BuildFleetTemplates(store, vclock.New(), tcfgs, tarts)
	end()
	if err != nil {
		fmt.Fprintf(os.Stderr, "offline-zoo: templates: %v\n", err)
		return outcome{}
	}
	resolve := engine.StoreResolver(store, vclock.New())

	h := sha256.New()
	var v2Total, deltaTotal, coldTotal float64
	completed := 0
	for i, cfg := range cfgs {
		if !ok[i] {
			continue
		}
		end := tr.begin("delta_encode")
		delta, err := arts[i].EncodeDelta(tmpls[cfg.Family])
		end()
		if err != nil {
			fail(i, err)
			continue
		}
		end = tr.begin("decode_v3")
		resolved, err := medusa.DecodeResolved(delta, resolve)
		end()
		if err == nil {
			var again []byte
			if again, err = resolved.Encode(); err == nil && !bytes.Equal(wires[i], again) {
				err = fmt.Errorf("v3 delta does not decode to the v2 bytes")
			}
		}
		if err != nil {
			fail(i, err)
			continue
		}
		end = tr.begin("coldstart")
		inst, err := engine.ColdStart(engine.Options{
			Model: cfg, Strategy: engine.StrategyMedusa, Seed: seed*100 + 50 + int64(i),
			Store: store, Artifact: resolved, ArtifactBytes: uint64(len(wires[i])),
		})
		end()
		if err == nil && inst.DegradedReason() != "" {
			err = fmt.Errorf("restore degraded: %s", inst.DegradedReason())
		}
		if err != nil {
			fail(i, err)
			continue
		}
		completed++
		v2Total += float64(len(wires[i]))
		deltaTotal += float64(len(delta))
		coldTotal += ms(inst.LoadingDuration())
		h.Write(wires[i])
		h.Write(delta)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(inst.LoadingDuration())))
	}
	out := outcome{completed: completed, work: map[string]float64{}}
	copy(out.digest[:], h.Sum(nil))
	if completed > 0 {
		out.work["work.wire_kb_per_model"] = v2Total / float64(completed) / 1024
		out.work["work.delta_ratio"] = v2Total / deltaTotal
		out.work["sim.cold_start_ms"] = coldTotal / float64(completed)
	}
	return out
}
