package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-fleet", runExtFleet)
}

// fleetModels are the two co-located deployments; the Zipf skew of the
// diurnal fleet tilts traffic toward the first.
var fleetModels = []string{"Qwen1.5-4B", "Llama2-7B"}

// fleetSLO is the per-request deadline the sweep measures attainment
// against.
var fleetSLO = serverless.SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond}

// runExtFleet sweeps the fleet control plane — autoscaling policy ×
// dispatch policy × tenant skew — under diurnal multi-tenant traffic
// with Markov-modulated bursts. Reactive autoscaling only adds capacity
// after queues form, so every burst front pays a cold start against the
// TTFT deadline; predictive autoscaling forecasts the arrival rate
// (Holt's linear smoothing over windowed rates) and provisions a
// cold-start's lead time ahead. The score router weighs queue depth, KV
// headroom, artifact locality, and predicted TTFT instead of walking
// instances in launch order. SLO attainment and node-seconds are the
// two axes of merit: a policy pair dominates when it meets more
// deadlines without holding more capacity.
func runExtFleet(c *Context) (*Report, error) {
	cfgs, err := c.fleetConfigs(fleetModels)
	if err != nil {
		return nil, err
	}

	type cell struct {
		scaler string
		route  string
		skew   float64
	}
	var cells []cell
	for _, sc := range []string{"reactive", "predictive"} {
		for _, rt := range []string{"fifo", "score"} {
			for _, sk := range []float64{0, 1.5} {
				cells = append(cells, cell{scaler: sc, route: rt, skew: sk})
			}
		}
	}

	mkDeps := func(skew float64) ([]serverless.Deployment, serverless.ArrivalSource, error) {
		// Phase-staggered diurnal sources, one per deployment: tenant
		// peaks are offset around the cycle, so fleet demand is never
		// flat even at skew 0.
		srcs, err := workload.DiurnalFleet(workload.DiurnalConfig{
			Seed: 61, BaseRPS: 30, Amplitude: 0.97, Period: 24 * time.Second,
			BurstFactor: 2, MeanBurst: 3 * time.Second, MeanCalm: 10 * time.Second,
			Duration:  60 * time.Second,
			MaxPrompt: 512, MeanOutput: 64, MaxOutput: 128,
		}, len(cfgs), skew)
		if err != nil {
			return nil, nil, err
		}
		// A small per-instance target and a short idle timeout make the
		// autoscaler the bottleneck: every diurnal trough drains
		// capacity, so the next ramp pays cold starts unless the policy
		// provisions ahead of it.
		deps, err := c.medusaDeployments(cfgs, serverless.Scheduler{
			InstanceTarget: 2,
			IdleTimeout:    2 * time.Second,
			Batch:          sched.Params{BatchTokens: 512, KVBlocks: 512, ChunkedPrefill: true},
		})
		return deps, serverless.MergeArrivals(srcs), err
	}

	r := &Report{
		ID:    "ext-fleet",
		Title: "Extension: fleet control plane — autoscaler × router × tenant skew (diurnal bursty traffic, 4 nodes, batched execution)",
		Header: []string{"autoscale", "router", "skew", "completed", "SLO att(%)",
			"node-sec", "TTFT p99(s)", "cold starts"},
	}
	for _, cl := range cells {
		// Policies are built fresh per cell: the predictive autoscaler
		// carries per-deployment forecast state across a run. Its window
		// is tuned to the diurnal period — 2s windows resolve the 24s
		// cycle's ramps, where the default 5s sees barely two points per
		// upswing. Scale-ahead is disabled (MaxStep -1): the reactive
		// feedback loop ticks on every arrival, so at these cold-start
		// lengths launching on a forecast only buys extra registry
		// fetches. The forecast earns its keep on the scale-down side —
		// a two-instance keep-warm floor held through troughs the
		// forecast expects traffic beyond, so burst fronts land on warm
		// capacity instead of a multi-second fetch.
		var scaler autoscale.Policy
		if cl.scaler == "predictive" {
			scaler, err = autoscale.NewPredictive(autoscale.PredictiveConfig{
				Window: 2 * time.Second, MaxStep: -1, KeepWarm: 2,
			})
		} else {
			scaler, err = autoscale.Parse(cl.scaler)
		}
		if err != nil {
			return nil, err
		}
		route, err := router.Parse(cl.route)
		if err != nil {
			return nil, err
		}
		deps, arr, err := mkDeps(cl.skew)
		if err != nil {
			return nil, err
		}
		// Ambient faults (the "mild" preset: 2% per site) leave the odd
		// replica degraded to the vanilla fallback profile — the
		// heterogeneity the score router exploits: a degraded replica's
		// slower decode step raises its predicted TTFT, steering work
		// toward healthy instances, which launch-order dispatch cannot.
		plan := faults.Presets()["mild"]
		// A high locality weight packs scale-ups onto artifact-warm
		// nodes: the predictive policy's speculative launches reuse
		// already-up nodes instead of opening fresh ones, keeping its
		// node-seconds bill near the reactive baseline.
		//
		// The cache is deliberately starved — a node's RAM tier holds one
		// tenant's artifact but not both, there is no SSD tier, and the
		// registry link is a congested WAN — so provisioning is expensive:
		// a launch on an artifact-cold node pays a multi-second registry
		// fetch before loading even starts. That is the regime where the
		// control plane earns its keep: predictive scale-ahead moves the
		// fetch off the deadline's critical path, and locality-aware
		// placement avoids paying it at all.
		res, err := serverless.RunFleet(serverless.Fleet{
			Nodes: 4, GPUsPerNode: 6,
			Cache: artifactcache.Params{
				RAMBytes: 4 << 20,
				RAM:      storage.Array{Bandwidth: 80e9, Latency: 2 * time.Microsecond},
			},
			Network:        storage.Array{Bandwidth: 2e6, Latency: 10 * time.Millisecond},
			LocalityWeight: 2.0,
			Seed:           7,
			Deployments:    deps,
			Arrivals:       arr,
			Faults:         &plan,
			Autoscaler:     scaler,
			Router:         route,
			SLO:            fleetSLO,
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(
			cl.scaler, cl.route,
			fmt.Sprintf("%.1f", cl.skew),
			fmt.Sprintf("%d", res.Completed),
			fmt.Sprintf("%.2f", res.SLOAttainment()*100),
			fmt.Sprintf("%.1f", res.NodeSeconds),
			secs(pooled(res, ttftOf).P99()),
			fmt.Sprintf("%d", res.TotalColdStarts))
	}
	r.AddNote("SLO: ttft ≤ %v, tpot ≤ %v; node-seconds integrate wall time each node holds ≥1 live instance, so a row dominates when attainment rises at equal or lower node-seconds", fleetSLO.TTFT, fleetSLO.TPOT)
	r.AddNote("fixed seed: every cell is byte-identical across reruns and GOMAXPROCS — diff results/ext-fleet.txt against a fresh run to verify")
	return r, nil
}
