package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-cache-policies", runExtCachePolicies)
}

// cachePolicyModels are the zoo models the policy sweep co-locates, in
// ascending artifact size. The Zipf split maps popularity rank onto
// this order — the most popular models are the smallest — so the
// cost-aware policy's size term has signal to act on.
var cachePolicyModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B", "Yi-6B",
	"Falcon-7B", "Llama2-13B", "Qwen1.5-4B", "Qwen1.5-14B", "Yi-9B",
}

// runExtCachePolicies sweeps the tiered artifact cache's eviction
// policies over one seeded multi-node, multi-model workload: ten Medusa
// deployments share a two-node fleet, request popularity is Zipf, and
// the cache tiers are sized so artifacts contend for space. The table
// compares hit rate, cold-start latency and fleet TTFT per policy.
func runExtCachePolicies(c *Context) (*Report, error) {
	cfgs, err := c.fleetConfigs(cachePolicyModels)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "ext-cache-policies",
		Title: "Extension: tiered artifact cache eviction policies (2 nodes, 10 models, Zipf popularity)",
		Header: []string{"policy", "hit rate", "ram/ssd/miss", "coalesced",
			"cold start p50(s)", "cold start p99(s)", "TTFT p99(s)", "fetched MB"},
	}
	for _, kind := range artifactcache.PolicyKinds() {
		deps, arr, err := c.zipfChurn(cfgs)
		if err != nil {
			return nil, err
		}
		cfg := tightFleet(deps, arr)
		cfg.Cache.Policy = kind
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			return nil, fmt.Errorf("ext-cache-policies: policy %v: %w", kind, err)
		}
		cs, ttft := pooled(res, coldStartOf), pooled(res, ttftOf)
		st := res.Cache
		r.AddRow(kind.String(),
			pct(st.HitRate()),
			fmt.Sprintf("%d/%d/%d", st.RAMHits, st.SSDHits, st.Misses),
			fmt.Sprintf("%d", st.Coalesced),
			secs(cs.P50()), secs(cs.P99()), secs(ttft.P99()),
			fmt.Sprintf("%.1f", float64(st.BytesFetched)/(1<<20)))
	}
	r.AddNote("same seeded trace per policy; popularity rank maps to ascending artifact size, so cost-aware (GDSF) eviction retains the hot small artifacts LRU's recency churns out")
	return r, nil
}

// tightFleet is the two-node fleet the cache and fault sweeps share.
// Its tiers are tight: SSD holds two small artifacts or one large one,
// so the eviction policy decides which models stay local while the
// Zipf tail streams one-shot artifacts through.
func tightFleet(deps []serverless.Deployment, arr serverless.ArrivalSource) serverless.Fleet {
	params := artifactcache.DefaultParams()
	params.RAMBytes = 2 << 20
	params.SSDBytes = 6 << 20
	return serverless.Fleet{
		Nodes: 2, GPUsPerNode: 4,
		Cache:          params,
		LocalityWeight: 0.8,
		Seed:           7,
		Deployments:    deps,
		Arrivals:       arr,
	}
}

// churn retires instances idle for 150 ms, so they die between bursts
// and every sweep point sees many launches.
var churn = serverless.Scheduler{IdleTimeout: 150 * time.Millisecond}

// zipfChurn builds the models' Medusa deployments under churn and
// splits one seeded trace across them by Zipf popularity. Each run
// calls it afresh, so runs share no mutable state.
func (c *Context) zipfChurn(cfgs []model.Config) ([]serverless.Deployment, serverless.ArrivalSource, error) {
	deps, err := c.medusaDeployments(cfgs, churn)
	if err != nil {
		return nil, nil, err
	}
	arr, err := zipfPoisson(workload.TraceConfig{
		Seed: 41, RPS: 4, Duration: 40 * time.Second,
		MeanOutput: 16, MaxOutput: 32,
	}, len(deps), 43, 1.2)
	return deps, arr, err
}

// zipfPoisson streams one seeded Poisson trace across n deployments by
// Zipf popularity (skew s, drawn from seed).
func zipfPoisson(tc workload.TraceConfig, n int, seed int64, s float64) (serverless.ArrivalSource, error) {
	src, err := workload.NewPoisson(tc)
	if err != nil {
		return nil, err
	}
	return serverless.ZipfArrivals(src, n, seed, s)
}
