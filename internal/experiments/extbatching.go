package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-batching", runExtBatching)
}

// batchingModels are the two deployments the batching sweep co-locates;
// the Zipf split skews traffic toward the first.
var batchingModels = []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B"}

// batchingSLO is the TTFT bound goodput counts against.
const batchingSLO = time.Second

// runExtBatching sweeps continuous batching's two capacity knobs — the
// per-iteration token budget and the paged-KV pool size — against
// workload skew, on the two-node fleet simulator in batched execution
// mode. Small KV pools force the scheduler to preempt decodes under
// memory pressure (recompute-on-resume), trading TPOT for admission;
// large budgets admit more prefill chunks per iteration, trading TTFT
// for decode latency. Goodput counts only requests whose TTFT met the
// SLO. With -batch-tokens set on the medusa-bench command line the
// built-in grid is replaced by that single cell.
func runExtBatching(c *Context) (*Report, error) {
	cfgs, err := c.fleetConfigs(batchingModels)
	if err != nil {
		return nil, err
	}

	type cell struct {
		batch sched.Params
		zipf  float64
	}
	var cells []cell
	if c.Batch.BatchTokens > 0 {
		// The command line pinned the batching knobs: run one cell per
		// skew level instead of the built-in grid.
		for _, z := range []float64{1.1, 2.0} {
			cells = append(cells, cell{batch: c.Batch, zipf: z})
		}
	} else {
		for _, bt := range []int{256, 1024} {
			for _, kv := range []int{48, 256} {
				for _, z := range []float64{1.1, 2.0} {
					cells = append(cells, cell{
						batch: sched.Params{BatchTokens: bt, KVBlocks: kv, ChunkedPrefill: true},
						zipf:  z,
					})
				}
			}
		}
	}

	// Prompts and outputs are clamped so the largest request needs 40 KV
	// blocks: the 48-block cells fit barely one worst-case sequence and
	// preempt under concurrency, while 256 blocks decode unhindered.
	mkDeps := func(batch sched.Params, zipf float64) ([]serverless.Deployment, error) {
		deps, err := c.medusaDeployments(cfgs, serverless.Scheduler{Batch: batch})
		if err != nil {
			return nil, err
		}
		trace, err := workload.Generate(workload.TraceConfig{
			Seed: 61, RPS: 12, Duration: 40 * time.Second,
			MaxPrompt: 512, MeanOutput: 64, MaxOutput: 128,
		})
		if err != nil {
			return nil, err
		}
		return serverless.ZipfDeployments(deps, trace, 67, zipf)
	}

	r := &Report{
		ID:    "ext-batching",
		Title: "Extension: continuous batching — token budget × KV blocks × workload skew (2 nodes, batched execution)",
		Header: []string{"batch tokens", "KV blocks", "zipf", "TTFT p50(s)", "TTFT p99(s)",
			"TPOT p50(ms)", "preempt", "goodput (req/s)", "completed"},
	}
	for _, cl := range cells {
		deps, err := mkDeps(cl.batch, cl.zipf)
		if err != nil {
			return nil, err
		}
		res, err := serverless.RunFleet(serverless.Fleet{
			Nodes: 2, GPUsPerNode: 2,
			Cache:          artifactcache.DefaultParams(),
			LocalityWeight: 0.8,
			Seed:           7,
			Deployments:    deps,
		})
		if err != nil {
			return nil, err
		}
		ttft := pooled(res, ttftOf)
		tpot := pooled(res, func(d *serverless.FleetDeployment) *metrics.Sample { return d.TPOT })
		preempted := 0
		for _, d := range res.PerDeployment {
			preempted += d.Preemptions
		}
		goodput := 0.0
		if res.Makespan > 0 {
			goodput = ttft.FractionBelow(batchingSLO) * float64(res.Completed) / res.Makespan.Seconds()
		}
		r.AddRow(
			fmt.Sprintf("%d", cl.batch.BatchTokens),
			fmt.Sprintf("%d", cl.batch.KVBlocks),
			fmt.Sprintf("%.1f", cl.zipf),
			secs(ttft.P50()), secs(ttft.P99()),
			fmt.Sprintf("%.2f", float64(tpot.P50().Microseconds())/1000),
			fmt.Sprintf("%d", preempted),
			fmt.Sprintf("%.2f", goodput),
			fmt.Sprintf("%d", res.Completed))
	}
	r.AddNote("goodput counts only requests with TTFT ≤ %v; preemptions release a victim's KV blocks and recompute its prefix on resume, so tight pools (48 blocks ≈ 1.2 worst-case sequences) trade TPOT and preemption churn for admission", batchingSLO)
	return r, nil
}
