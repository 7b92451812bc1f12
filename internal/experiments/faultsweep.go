package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("ext-fault-sweep", runExtFaultSweep)
}

// faultSweepModels are the co-located deployments the sweep stresses;
// small models churn fast, so the injector gets many draws per run.
var faultSweepModels = []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B"}

// runExtFaultSweep sweeps fault probability over one seeded two-node
// workload: at each point the same plan probability is applied to all
// four injectable sites (artifact corruption, registry fetch timeouts,
// SSD read errors, restore-validation mismatches), plus a final row
// that also crashes a node mid-run. Every run must complete every
// request — injected faults degrade launches to vanilla cold starts
// (FAILURES.md), they never abort — so the table shows what survivable
// degradation costs: TTFT percentiles and the degradation rate as a
// function of fault probability.
func runExtFaultSweep(c *Context) (*Report, error) {
	cfgs, err := c.fleetConfigs(faultSweepModels)
	if err != nil {
		return nil, err
	}

	mkFleet := func() (serverless.Fleet, error) {
		deps, err := c.medusaDeployments(cfgs, churn)
		if err != nil {
			return serverless.Fleet{}, err
		}
		// Long-ish generations keep batches busy so the crash row's node
		// death lands on running requests (they requeue, not vanish).
		arr, err := zipfPoisson(workload.TraceConfig{
			Seed: 51, RPS: 4, Duration: 40 * time.Second,
			MeanOutput: 256, MaxOutput: 1024,
		}, len(deps), 53, 1.2)
		return tightFleet(deps, arr), err
	}

	type point struct {
		label string
		plan  faults.Plan
	}
	uniform := func(p float64) faults.Plan {
		spec := faults.SiteSpec{Probability: p}
		return faults.Plan{
			Seed:            17,
			ArtifactCorrupt: spec, RegistryTimeout: spec,
			SSDRead: spec, RestoreMismatch: spec,
		}
	}
	points := []point{{label: "0.00", plan: faults.Plan{}}}
	for _, p := range []float64{0.02, 0.05, 0.10, 0.20} {
		points = append(points, point{label: fmt.Sprintf("%.2f", p), plan: uniform(p)})
	}
	crash := uniform(0.02)
	crash.NodeCrashes = []faults.NodeCrash{{Node: 1, At: faults.Duration(12 * time.Second)}}
	points = append(points, point{label: "0.02+crash", plan: crash})

	r := &Report{
		ID:    "ext-fault-sweep",
		Title: "Extension: fault-injection sweep (2 nodes, 3 models, all sites at probability p)",
		Header: []string{"p", "completed", "cold starts", "degraded", "degr rate",
			"requeued", "TTFT p50(s)", "TTFT p99(s)", "cold start p99(s)"},
	}
	for _, pt := range points {
		ccfg, err := mkFleet()
		if err != nil {
			return nil, err
		}
		plan := pt.plan
		ccfg.Faults = &plan
		res, err := serverless.RunFleet(ccfg)
		if err != nil {
			return nil, fmt.Errorf("fault sweep p=%s: %w", pt.label, err)
		}
		cs, ttft := pooled(res, coldStartOf), pooled(res, ttftOf)
		rate := 0.0
		if res.TotalColdStarts > 0 {
			rate = float64(res.Degraded) / float64(res.TotalColdStarts)
		}
		r.AddRow(pt.label,
			fmt.Sprintf("%d", res.Completed),
			fmt.Sprintf("%d", res.TotalColdStarts),
			fmt.Sprintf("%d", res.Degraded),
			pct(rate),
			fmt.Sprintf("%d", res.Requeued),
			secs(ttft.P50()), secs(ttft.P99()), secs(cs.P99()))
	}
	r.AddNote("same seeded trace at every point; faults degrade launches to vanilla cold starts (never abort), so 'completed' is constant while TTFT tails and the degradation rate grow with p")
	r.AddNote("the crash row kills node 1 at t=12s: its cache tiers are lost and running requests requeue onto node 0")
	return r, nil
}
