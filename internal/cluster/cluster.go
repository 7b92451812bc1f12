// Package cluster runs the simulator core (serverless.RunFleet) as a
// multi-node fleet with a tiered artifact cache. The single-pool
// simulator — the same core on one node without a cache — answers "how
// bad are cold starts"; this package answers the question the fleet
// operator actually faces: WHERE to place a cold-starting instance so
// the (model, strategy) artifact it needs is already nearby. Each node
// fronts the shared artifact registry with a two-tier local cache (host
// page cache, node-local SSD — see internal/artifactcache), and the
// placer trades artifact locality against load balance with a
// configurable weight.
//
// Everything is deterministic: one event loop on virtual time, heap
// tie-breaks by sequence number, RNGs seeded from the Config, no wall
// clock. Fixed-seed runs render byte-identical Results and obs exports
// regardless of repetition or GOMAXPROCS.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// DefaultLocalityWeight is the placement trade-off used when callers do
// not set one: locality contributes up to this much score against a
// load term in [0, 1].
const DefaultLocalityWeight = 0.6

// Config parameterizes one multi-node simulation; its fields are
// documented on serverless.Fleet, the simulator core's input.
type Config = serverless.Fleet

// withDefaults fills the fleet defaults and rejects configurations the
// fleet cannot run.
func withDefaults(c Config) (Config, error) {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 4
	}
	if c.Nodes < 0 || c.GPUsPerNode < 0 {
		return c, fmt.Errorf("cluster: Nodes %d and GPUsPerNode %d must be positive", c.Nodes, c.GPUsPerNode)
	}
	if c.LocalityWeight < 0 {
		return c, fmt.Errorf("cluster: LocalityWeight must be ≥ 0, got %g", c.LocalityWeight)
	}
	if c.WarmContainersPerNode < 0 {
		return c, fmt.Errorf("cluster: WarmContainersPerNode must be ≥ 0, got %d", c.WarmContainersPerNode)
	}
	if err := c.SLO.Validate(); err != nil {
		return c, err
	}
	if c.Cache == (artifactcache.Params{}) {
		c.Cache = artifactcache.DefaultParams()
	}
	if c.Network == (storage.Array{}) {
		c.Network = artifactcache.DefaultNetwork()
	}
	if len(c.Deployments) == 0 {
		return c, fmt.Errorf("cluster: no deployments")
	}
	if c.Faults.Plan != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, err
		}
		crashed := make(map[int]bool)
		for _, nc := range c.Faults.Plan.NodeCrashes {
			if nc.Node >= c.Nodes {
				return c, fmt.Errorf("cluster: fault plan crashes node %d of a %d-node fleet", nc.Node, c.Nodes)
			}
			crashed[nc.Node] = true
		}
		if len(crashed) >= c.Nodes {
			return c, fmt.Errorf("cluster: fault plan crashes all %d nodes; at least one must survive", c.Nodes)
		}
	}
	return c, nil
}

// DeploymentResult is one deployment's slice of the fleet outcome.
type DeploymentResult = serverless.FleetDeployment

// NodeResult is one node's share of the fleet outcome.
type NodeResult = serverless.NodeResult

// Result aggregates one fleet simulation: the simulator core's outcome
// and the configuration that produced it.
type Result struct {
	serverless.FleetResult
	// Config echoes the normalized configuration the run used.
	Config Config
}

// SLOAttainment returns the fleet-wide fraction of completed requests
// that met every configured deadline (0 when nothing completed).
func (r *Result) SLOAttainment() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SLOMet) / float64(r.Completed)
}

// Run simulates the fleet: it fills the defaults and runs the simulator
// core (serverless.RunFleet), whose nodes front the shared artifact
// registry with tiered caches.
func Run(cfg Config) (*Result, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	fr, err := serverless.RunFleet(cfg)
	if err != nil {
		return nil, err
	}
	return &Result{FleetResult: *fr, Config: cfg}, nil
}

// RunPolicySweep runs the same workload once per eviction policy,
// regenerating deployments through mkDeps so each run starts from a
// fresh trace and profile (runs must not share mutable state).
func RunPolicySweep(base Config, mkDeps func() ([]serverless.Deployment, error)) ([]*Result, error) {
	var out []*Result
	for _, kind := range artifactcache.PolicyKinds() {
		deps, err := mkDeps()
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Cache.Policy = kind
		cfg.Deployments = deps
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: policy %v: %w", kind, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ZipfDeployments splits one Poisson arrival process across the given
// deployments with Zipf-distributed popularity (skew s > 1; rank 0 is
// the most popular). The returned slices preserve each deployment's
// own arrival ordering and re-number per-deployment request IDs.
func ZipfDeployments(deps []serverless.Deployment, trace []workload.Request, seed int64, s float64) ([]serverless.Deployment, error) {
	if len(deps) == 0 {
		return nil, fmt.Errorf("cluster: no deployments to split across")
	}
	if s <= 1 {
		return nil, fmt.Errorf("cluster: Zipf skew must be > 1, got %g", s)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(len(deps)-1))
	if zipf == nil {
		return nil, fmt.Errorf("cluster: invalid Zipf parameters (s=%g, n=%d)", s, len(deps))
	}
	out := make([]serverless.Deployment, len(deps))
	copy(out, deps)
	for i := range out {
		out[i].Requests = nil
	}
	for _, r := range trace {
		di := int(zipf.Uint64())
		r.ID = len(out[di].Requests)
		out[di].Requests = append(out[di].Requests, r)
	}
	for i := range out {
		if len(out[i].Requests) == 0 {
			// Every deployment needs at least one request or Run
			// rejects it; steal the tail of the busiest deployment.
			busiest := 0
			for j := range out {
				if len(out[j].Requests) > len(out[busiest].Requests) {
					busiest = j
				}
			}
			if len(out[busiest].Requests) < 2 {
				return nil, fmt.Errorf("cluster: trace too small to cover %d deployments", len(deps))
			}
			last := len(out[busiest].Requests) - 1
			r := out[busiest].Requests[last]
			out[busiest].Requests = out[busiest].Requests[:last]
			r.ID = 0
			out[i].Requests = []workload.Request{r}
		}
	}
	return out, nil
}

// sortedPhases lists a breakdown's phases sorted by name (rendering
// must not depend on first-charged order, which varies with workload).
func sortedPhases(b *obs.PhaseBreakdown) []string {
	phases := b.Phases()
	sort.Strings(phases)
	return phases
}
