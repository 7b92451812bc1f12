package cluster

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// fixtureModels are the zoo models the cluster tests deploy, in
// roughly ascending artifact size (the Zipf tests map popularity rank
// onto this order: the most popular models are the smallest, the
// regime where cost-aware eviction pays off).
var fixtureModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B", "Yi-6B",
	"Falcon-7B", "Llama2-13B", "Qwen1.5-4B", "Qwen1.5-14B", "Yi-9B",
}

// The offline phase runs once per model per test binary (the paper's
// deployment model pays it once per model); every test shares the
// store and artifacts.
var (
	fixtureOnce  sync.Once
	fixtureStore *storage.Store
	fixtureArts  map[string]struct {
		cfg   model.Config
		art   *medusa.Artifact
		bytes uint64
	}
	fixtureErr error
)

// medusaDeployment builds one Medusa-strategy deployment config for a
// fixture model.
func medusaDeployment(t testing.TB, name string, seed int64) serverless.Config {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureStore = storage.NewStore(storage.DefaultArray())
		fixtureArts = make(map[string]struct {
			cfg   model.Config
			art   *medusa.Artifact
			bytes uint64
		})
		for _, n := range fixtureModels {
			cfg, err := model.ByName(n)
			if err != nil {
				fixtureErr = err
				return
			}
			art, rep, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Store: fixtureStore, Seed: 500})
			if err != nil {
				fixtureErr = err
				return
			}
			fixtureArts[n] = struct {
				cfg   model.Config
				art   *medusa.Artifact
				bytes uint64
			}{cfg, art, rep.ArtifactBytes}
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	fa, ok := fixtureArts[name]
	if !ok {
		t.Fatalf("model %s not in fixture", name)
	}
	return serverless.Config{
		Model:    fa.cfg,
		Strategy: engine.StrategyMedusa,
		Store:    fixtureStore,
		Cache:    serverless.CacheSpec{Artifact: fa.art, ArtifactBytes: fa.bytes},
		Seed:     seed,
	}
}

// tracerFixture pairs a tracer with its serialized export.
type tracerFixture struct{ tracer *obs.Tracer }

func obsTracer() tracerFixture { return tracerFixture{tracer: obs.NewTracer()} }

func (f tracerFixture) chrome(t testing.TB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func genTrace(t testing.TB, seed int64, rps float64, seconds int) []workload.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.TraceConfig{
		Seed: seed, RPS: rps, Duration: time.Duration(seconds) * time.Second,
		MeanOutput: 16, MaxOutput: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// churnConfig is a fleet sized so artifacts contend for cache space:
// tiers hold one or two of the fixture artifacts (1.6–3 MiB each), and
// short idle timeouts force continual relaunching.
func churnConfig(policy artifactcache.PolicyKind) serverless.Fleet {
	const MiB = 1 << 20
	p := artifactcache.DefaultParams()
	p.RAMBytes = 3 * MiB
	p.SSDBytes = 6 * MiB
	p.Policy = policy
	return serverless.Fleet{
		Nodes:          2,
		GPUsPerNode:    4,
		Cache:          p,
		LocalityWeight: serverless.DefaultLocalityWeight,
		Seed:           7,
	}
}

func idleOut(cfg serverless.Config, d time.Duration) serverless.Config {
	cfg.Scheduler.IdleTimeout = d
	return cfg
}

func TestClusterCompletesAndConserves(t *testing.T) {
	cfg := churnConfig(artifactcache.PolicyLRU)
	vllmDep := medusaDeployment(t, "Qwen1.5-1.8B", 2)
	vllmDep.Strategy = engine.StrategyVLLM
	vllmDep.Cache = serverless.CacheSpec{}
	cfg.Deployments = []serverless.Deployment{
		{Name: "medusa-0.5b", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 300*time.Millisecond),
			Requests: genTrace(t, 11, 2, 20)},
		{Name: "vllm-1.8b", Config: idleOut(vllmDep, 300*time.Millisecond),
			Requests: genTrace(t, 12, 1, 20)},
	}
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range res.PerDeployment {
		total += d.Completed
		if d.Completed == 0 {
			t.Fatalf("deployment %s completed nothing", d.Name)
		}
	}
	want := len(cfg.Deployments[0].Requests) + len(cfg.Deployments[1].Requests)
	if total != want {
		t.Fatalf("completed %d of %d", total, want)
	}

	// Conservation: per-tier hits + misses + coalesced fetches equal
	// the artifact-strategy launches exactly; the vLLM deployment never
	// touches the cache.
	medusaCS := res.PerDeployment[0].ColdStarts
	if res.Cache.Requests() != medusaCS {
		t.Fatalf("cache requests %d != medusa cold starts %d (stats %+v)",
			res.Cache.Requests(), medusaCS, res.Cache)
	}
	if medusaCS < 3 {
		t.Fatalf("workload produced only %d medusa cold starts; cache barely exercised", medusaCS)
	}
	// Registry counters agree with the per-node stats they mirror.
	reg := res.Metrics
	if got := int(reg.Counter("cache_ram_hits").Value() + reg.Counter("cache_ssd_hits").Value() +
		reg.Counter("cache_misses").Value() + reg.Counter("cache_coalesced").Value()); got != res.Cache.Requests() {
		t.Fatalf("registry counters sum to %d, stats to %d", got, res.Cache.Requests())
	}
	// Phase attribution stays exact under the overlapped fetch model.
	for _, d := range res.PerDeployment {
		if drift := d.ColdStartPhases.Total() - d.ColdStartTotal; drift != 0 {
			t.Fatalf("deployment %s: phase attribution drifted by %v", d.Name, drift)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	for _, policy := range artifactcache.PolicyKinds() {
		run := func() (string, string) {
			cfg := churnConfig(policy)
			cfg.PrewarmSSD = policy == artifactcache.PolicyLFU // vary the setup per policy arm
			tr := obsTracer()
			cfg.Tracer = tr.tracer
			cfg.Deployments = []serverless.Deployment{
				{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 250*time.Millisecond),
					Requests: genTrace(t, 21, 2, 15)},
				{Name: "b", Config: idleOut(medusaDeployment(t, "Llama2-7B", 2), 250*time.Millisecond),
					Requests: genTrace(t, 22, 1, 15)},
			}
			res, err := serverless.RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Render() + res.Metrics.Render(), tr.chrome(t)
		}
		r1, c1 := run()
		r2, c2 := run()
		if r1 != r2 {
			t.Fatalf("%v: rendered results differ across identical runs:\n--- run1\n%s\n--- run2\n%s", policy, r1, r2)
		}
		if c1 != c2 {
			t.Fatalf("%v: chrome trace exports differ across identical runs", policy)
		}
		// A different scheduler parallelism must not change a byte.
		prev := runtime.GOMAXPROCS(1)
		r3, c3 := run()
		runtime.GOMAXPROCS(prev)
		if r3 != r1 || c3 != c1 {
			t.Fatalf("%v: results differ under GOMAXPROCS=1", policy)
		}
		if !strings.Contains(r1, "cache total") {
			t.Fatalf("render missing cache section:\n%s", r1)
		}
	}
}

// zipfWorkload splits one Poisson trace across the first n fixture
// models with Zipf popularity (rank 0 = smallest artifact).
func zipfWorkload(t testing.TB, n int, idle time.Duration, traceSeed int64, rps float64, seconds int) []serverless.Deployment {
	t.Helper()
	deps := make([]serverless.Deployment, 0, n)
	for i, name := range fixtureModels[:n] {
		deps = append(deps, serverless.Deployment{
			Name:   name,
			Config: idleOut(medusaDeployment(t, name, int64(i+1)), idle),
		})
	}
	split, err := serverless.ZipfDeployments(deps, genTrace(t, traceSeed, rps, seconds), 43, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return split
}

// TestLocalityImprovesHitRate compares locality-aware placement with
// pure load balancing on the same multi-model churn workload: steering
// launches toward nodes that already hold the artifact must raise the
// fleet's local hit rate — spreading by load alone splits each model's
// working set across nodes whose tight caches can't all retain it.
func TestLocalityImprovesHitRate(t *testing.T) {
	run := func(weight float64) *serverless.FleetResult {
		cfg := churnConfig(artifactcache.PolicyLRU)
		cfg.LocalityWeight = weight
		cfg.Deployments = zipfWorkload(t, 6, 150*time.Millisecond, 31, 4, 30)
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local := run(0.8)
	spread := run(0)
	if local.Cache.Requests() < 20 {
		t.Fatalf("only %d launches; workload too tame to compare placement", local.Cache.Requests())
	}
	lr, sr := local.Cache.HitRate(), spread.Cache.HitRate()
	if lr <= sr {
		t.Fatalf("locality hit rate %.3f not above load-balanced %.3f (local %+v, spread %+v)",
			lr, sr, local.Cache, spread.Cache)
	}
	t.Logf("hit rate: locality %.3f vs load-balanced %.3f over %d fetches", lr, sr, local.Cache.Requests())
}

// TestCostAwareBeatsLRUOnZipf is the acceptance check: on a skewed
// multi-model workload with cache churn, the cost-aware policy's
// cluster hit rate must beat LRU's.
func TestCostAwareBeatsLRUOnZipf(t *testing.T) {
	base := churnConfig(artifactcache.PolicyLRU)
	// Tight tiers: SSD holds two small artifacts or one large one, so
	// the eviction policy decides which models stay local while the
	// Zipf tail streams one-shot artifacts through.
	base.Cache.RAMBytes = 2 << 20
	base.Cache.SSDBytes = 6 << 20
	base.LocalityWeight = 0.8
	byPolicy := map[artifactcache.PolicyKind]*serverless.FleetResult{}
	for _, kind := range artifactcache.PolicyKinds() {
		cfg := base
		cfg.Cache.Policy = kind
		cfg.Deployments = zipfWorkload(t, len(fixtureModels), 150*time.Millisecond, 41, 4, 40)
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byPolicy[kind] = res
		if res.Cache.Requests() < 10 {
			t.Fatalf("%v: only %d artifact fetches; workload not churning", kind, res.Cache.Requests())
		}
	}
	lru := byPolicy[artifactcache.PolicyLRU].Cache.HitRate()
	gdsf := byPolicy[artifactcache.PolicyCostAware].Cache.HitRate()
	if gdsf <= lru {
		t.Fatalf("cost-aware hit rate %.3f not above LRU %.3f\nlru: %+v\ngdsf: %+v",
			gdsf, lru, byPolicy[artifactcache.PolicyLRU].Cache, byPolicy[artifactcache.PolicyCostAware].Cache)
	}
	t.Logf("hit rate: lru %.3f lfu %.3f costaware %.3f over %d fetches",
		lru, byPolicy[artifactcache.PolicyLFU].Cache.HitRate(), gdsf,
		byPolicy[artifactcache.PolicyCostAware].Cache.Requests())
}

func TestPrewarmSSDServesFirstLaunchLocally(t *testing.T) {
	cfg := churnConfig(artifactcache.PolicyLRU)
	// Tiers large enough that nothing is evicted after the prewarm.
	cfg.Cache.RAMBytes = 64 << 20
	cfg.Cache.SSDBytes = 64 << 20
	cfg.PrewarmSSD = true
	cfg.Deployments = []serverless.Deployment{
		{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 300*time.Millisecond),
			Requests: genTrace(t, 51, 2, 10)},
	}
	res, err := serverless.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Misses != 0 {
		t.Fatalf("prewarmed fleet still missed %d times: %+v", res.Cache.Misses, res.Cache)
	}
	if res.Cache.SSDHits == 0 {
		t.Fatalf("prewarmed fleet never hit SSD: %+v", res.Cache)
	}
}

func TestZipfDeployments(t *testing.T) {
	trace := genTrace(t, 61, 5, 30)
	deps := make([]serverless.Deployment, 4)
	for i := range deps {
		deps[i].Name = fixtureModels[i]
	}
	split, err := serverless.ZipfDeployments(deps, trace, 9, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, d := range split {
		if len(d.Requests) == 0 {
			t.Fatalf("deployment %d got no requests", i)
		}
		total += len(d.Requests)
		for j := 1; j < len(d.Requests); j++ {
			if d.Requests[j].Arrival < d.Requests[j-1].Arrival {
				t.Fatalf("deployment %d arrivals out of order", i)
			}
		}
	}
	if total != len(trace) {
		t.Fatalf("split %d requests, had %d", total, len(trace))
	}
	if len(split[0].Requests) <= len(split[len(split)-1].Requests) {
		t.Fatalf("skew inverted: rank 0 got %d, last rank %d",
			len(split[0].Requests), len(split[len(split)-1].Requests))
	}
	// Same seed, same split.
	again, err := serverless.ZipfDeployments(deps, trace, 9, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range split {
		if len(split[i].Requests) != len(again[i].Requests) {
			t.Fatalf("split not deterministic for deployment %d", i)
		}
	}
	if _, err := serverless.ZipfDeployments(deps, trace, 9, 0.9); err == nil {
		t.Fatal("skew ≤ 1 should be rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := serverless.RunFleet(serverless.Fleet{}); err == nil {
		t.Fatal("empty config should be rejected (no deployments)")
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := serverless.RunFleet(serverless.Fleet{LocalityWeight: w,
			Deployments: []serverless.Deployment{{}}}); err == nil {
			t.Fatalf("locality weight %g should be rejected", w)
		}
	}
	if _, err := serverless.RunFleet(serverless.Fleet{
		Deployments: []serverless.Deployment{{Name: "empty"}}}); err == nil {
		t.Fatal("empty trace should be rejected")
	}
}
