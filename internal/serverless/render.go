package serverless

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/obs"
)

// Render is the FleetResult's canonical text form: a pure function of
// the simulation outcome, used by the determinism tests (byte-identical
// across repetitions and GOMAXPROCS) and printed by medusa-simulate.
func (r *FleetResult) Render() string {
	// Fault lines only appear under a nonzero plan so that fault-free
	// output stays byte-identical to builds without fault injection.
	withFaults := r.Config.Faults != nil && !r.Config.Faults.Zero()
	// SLO and control-plane lines only appear when an SLO is configured,
	// for the same reason.
	withSLO := !r.Config.SLO.Zero()
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d nodes × %d GPUs, policy %v, locality %.2f\n",
		r.Config.Nodes, r.Config.GPUsPerNode, r.Config.Cache.Policy, r.Config.LocalityWeight)
	if withSLO {
		scaler := "reactive"
		if r.Config.Autoscaler != nil {
			scaler = r.Config.Autoscaler.Name()
		}
		route := "fifo"
		if r.Config.Router != nil {
			route = r.Config.Router.Name()
		}
		fmt.Fprintf(&b, "fleet: autoscale %s router %s slo ttft %v tpot %v\n",
			scaler, route, r.Config.SLO.TTFT, r.Config.SLO.TPOT)
	}
	for _, d := range r.PerDeployment {
		fmt.Fprintf(&b, "deployment %-16s completed %5d  ttft p50 %-12v p99 %-12v cold_starts %4d (total %v)\n",
			d.Name, d.Completed, quantile(d.TTFT, 0.5), quantile(d.TTFT, 0.99), d.ColdStarts, d.ColdStartTotal)
		if d.ColdStart.Len() > 0 {
			fmt.Fprintf(&b, "  cold start p50 %-12v p99 %-12v\n", d.ColdStart.P50(), d.ColdStart.P99())
		}
		// TPOT exists only under the batched policy; gating on it keeps
		// whole-request output byte-identical.
		if d.TPOT != nil {
			fmt.Fprintf(&b, "  tpot p50 %-12v p99 %-12v preemptions %d\n",
				quantile(d.TPOT, 0.5), quantile(d.TPOT, 0.99), d.Preemptions)
		}
		if withSLO {
			pct := 0.0
			if d.Completed > 0 {
				pct = float64(d.SLOMet) / float64(d.Completed) * 100
			}
			fmt.Fprintf(&b, "  slo met %d/%d (%.1f%%)\n", d.SLOMet, d.Completed, pct)
		}
		if withFaults {
			fmt.Fprintf(&b, "  degraded %d (corrupt %d mismatch %d timeout %d)\n",
				d.Degraded,
				int(d.Metrics.Counter("degraded_artifact_corrupt").Value()),
				int(d.Metrics.Counter("degraded_restore_mismatch").Value()),
				int(d.Metrics.Counter("degraded_fetch_timeout").Value()))
		}
		for _, p := range sortedPhases(d.ColdStartPhases) {
			fmt.Fprintf(&b, "  phase %-26s %v\n", p, d.ColdStartPhases.Duration(p))
		}
	}
	for _, n := range r.PerNode {
		c := n.Cache
		crashed := ""
		if n.Crashed {
			crashed = "  CRASHED"
		}
		fmt.Fprintf(&b, "node %d: launches %4d  cache ram %d ssd %d miss %d coalesced %d evict %d/%d bytes %d%s\n",
			n.ID, n.Launches, c.RAMHits, c.SSDHits, c.Misses, c.Coalesced,
			c.RAMEvictions, c.SSDEvictions, c.BytesFetched, crashed)
	}
	fmt.Fprintf(&b, "cache total: requests %d hit_rate %.1f%% coalesced %d bytes_fetched %d\n",
		r.Cache.Requests(), r.Cache.HitRate()*100, r.Cache.Coalesced, r.Cache.BytesFetched)
	if withFaults {
		rate := 0.0
		if r.TotalColdStarts > 0 {
			rate = float64(r.Degraded) / float64(r.TotalColdStarts) * 100
		}
		fmt.Fprintf(&b, "faults: degraded %d/%d (%.1f%%)  requeued %d  node_crashes %d  lost_cold_starts %d  fetch_timeouts %d  ssd_read_errors %d\n",
			r.Degraded, r.TotalColdStarts, rate, r.Requeued, r.NodeCrashes,
			int(r.Metrics.Counter("lost_cold_starts").Value()),
			r.Cache.TimedOut, r.Cache.SSDReadErrors)
	}
	if withSLO {
		fmt.Fprintf(&b, "slo attainment %.2f%%  node_seconds %.3f\n",
			r.SLOAttainment()*100, r.NodeSeconds)
	}
	fmt.Fprintf(&b, "cold starts %d  gpu_seconds %.3f  makespan %v\n",
		r.TotalColdStarts, r.GPUSeconds, r.Makespan)
	return b.String()
}

// sortedPhases lists a breakdown's phases sorted by name (rendering
// must not depend on first-charged order, which varies with workload).
func sortedPhases(b *obs.PhaseBreakdown) []string {
	phases := b.Phases()
	sort.Strings(phases)
	return phases
}

// quantile is s's p-quantile, or 0 for a sample with no values: a
// deployment that completed nothing renders instead of panicking.
func quantile(s *metrics.Sample, p float64) time.Duration {
	d, _ := s.Quantile(p)
	return d
}
