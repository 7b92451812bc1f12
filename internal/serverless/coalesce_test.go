package serverless

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/workload"
)

// fleetSummary renders everything a fleet run reports except Work.
func fleetSummary(res *FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%d cold=%d degraded=%d requeued=%d crashes=%d slo=%d gpu=%.9f node=%.9f makespan=%v\n",
		res.Completed, res.TotalColdStarts, res.Degraded, res.Requeued, res.NodeCrashes, res.SLOMet,
		res.GPUSeconds, res.NodeSeconds, res.Makespan)
	for _, d := range res.PerDeployment {
		ttft, _ := d.TTFT.Summary()
		e2e, _ := d.E2E.Summary()
		fmt.Fprintf(&b, "%s completed=%d cold=%d peak=%d cold_total=%v throughput=%.9f\nttft %+v\ne2e  %+v\n",
			d.Name, d.Completed, d.ColdStarts, d.PeakInstances, d.ColdStartTotal, d.Throughput, ttft, e2e)
		b.WriteString(d.Metrics.Render())
		b.WriteString(d.ColdStartPhases.Table())
	}
	for _, n := range res.PerNode {
		fmt.Fprintf(&b, "%+v\n", n)
	}
	b.WriteString(res.Metrics.Render())
	return b.String()
}

// runTraced runs the fleet with every span going to one tracer and
// returns the result and the tracer's Chrome export. A non-nil hook
// (&forcePerStep, &referenceLoop) is set for the run.
func runTraced(t *testing.T, f Fleet, hook *bool) (*FleetResult, *obs.Tracer, string) {
	t.Helper()
	if hook != nil {
		*hook = true
		defer func() { *hook = false }()
	}
	tr := obs.NewTracer()
	f.Tracer = tr
	deps := make([]Deployment, len(f.Deployments))
	copy(deps, f.Deployments)
	for i := range deps {
		deps[i].Config.Tracer = tr
	}
	f.Deployments = deps
	res, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return res, tr, buf.String()
}

// checkCoalescedMatchesPerStep runs the fleet both ways and requires
// identical outputs, Chrome trace included, and identical work except
// iteration-end events (fewer when coalesced) and the heap high-water
// mark.
func checkCoalescedMatchesPerStep(t *testing.T, f Fleet) (coalesced, perStep *FleetResult) {
	t.Helper()
	co, _, coTrace := runTraced(t, f, nil)
	ps, _, psTrace := runTraced(t, f, &forcePerStep)
	if got, want := fleetSummary(co), fleetSummary(ps); got != want {
		t.Fatalf("coalesced runs diverge from per-step execution:\n--- coalesced\n%s\n--- per step\n%s", got, want)
	}
	if coTrace != psTrace {
		t.Fatalf("coalesced runs change the Chrome trace (%d vs %d bytes)", len(coTrace), len(psTrace))
	}
	cw, pw := co.Work, ps.Work
	if pw.IterationEnds != pw.Iterations {
		t.Errorf("per step: %d iteration-end events for %d iterations", pw.IterationEnds, pw.Iterations)
	}
	cw.IterationEnds, pw.IterationEnds = 0, 0
	cw.HeapMax, pw.HeapMax = 0, 0
	if cw != pw {
		t.Errorf("work differs beyond iteration ends:\n coalesced %+v\n per step  %+v", cw, pw)
	}
	return co, ps
}

// coalesceFleet is a two-node, two-GPU-per-node fleet with caches
// serving two deployments above its capacity, so instances churn.
func coalesceFleet(t *testing.T, tweak func(i int, c *Config)) Fleet {
	t.Helper()
	cache := artifactcache.DefaultParams()
	cache.RAMBytes, cache.SSDBytes = 3<<20, 6<<20
	f := Fleet{
		Nodes: 2, GPUsPerNode: 2, Cache: cache, Network: artifactcache.DefaultNetwork(),
		LocalityWeight: 0.6, Seed: 7,
	}
	for i, name := range []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B"} {
		_, c := simFixture(t, name)
		c.Strategy = engine.StrategyMedusa
		c.Seed = int64(i + 1)
		c.Scheduler.IdleTimeout = 300 * time.Millisecond
		c.Scheduler.InstanceTarget = 2
		tweak(i, &c)
		reqs, err := workload.Generate(workload.TraceConfig{
			Seed: int64(60 + i), RPS: 4, Duration: 25 * time.Second, MeanOutput: 16, MaxOutput: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Deployments = append(f.Deployments, Deployment{Name: name, Config: c, Requests: reqs})
	}
	return f
}

// TestCoalescedDecodeMatchesPerStep is the oracle for coalesced decode
// runs: forcing one event per iteration must change nothing but the
// number of iteration-end events.
func TestCoalescedDecodeMatchesPerStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Fleet
	}{
		{"legacy", func(t *testing.T) Fleet {
			return coalesceFleet(t, func(int, *Config) {})
		}},
		{"follow-ups", func(t *testing.T) Fleet {
			return coalesceFleet(t, func(_ int, c *Config) {
				c.Workload.FollowUp = &FollowUpModel{Probability: 0.4, ThinkTime: 800 * time.Millisecond, MaxTurns: 3}
			})
		}},
		{"prewarm", func(t *testing.T) Fleet {
			return coalesceFleet(t, func(_ int, c *Config) { c.Scheduler.Prewarm = 1 })
		}},
		{"tp2", func(t *testing.T) Fleet {
			return coalesceFleet(t, func(i int, c *Config) {
				if i == 1 {
					c.Strategy = engine.StrategyVLLM
					c.Cache = CacheSpec{}
					c.TPDegree = 2
				}
			})
		}},
		{"warm-exhaustion", func(t *testing.T) Fleet {
			f := coalesceFleet(t, func(int, *Config) {})
			f.WarmContainersPerNode = 1
			return f
		}},
		{"crash", func(t *testing.T) Fleet {
			f := coalesceFleet(t, func(int, *Config) {})
			plan := faults.Presets()["crash"]
			f.Faults = FaultSpec{Plan: &plan}
			return f
		}},
		{"crash-mid-run", func(t *testing.T) Fleet {
			// One instance per node, each decoding one long request when
			// node 1 dies: its request is requeued and cuts node 0's run.
			f := coalesceFleet(t, func(_ int, c *Config) { c.Scheduler.Prewarm = 1 })
			f.GPUsPerNode = 1
			f.Deployments = f.Deployments[:1]
			f.Deployments[0].Requests = []workload.Request{
				{ID: 0, PromptTokens: 32, OutputTokens: 1000},
				{ID: 1, PromptTokens: 32, OutputTokens: 1000},
			}
			f.Deployments[0].Config.Scheduler.Prewarm = 2
			f.Faults = FaultSpec{Plan: &faults.Plan{
				NodeCrashes: []faults.NodeCrash{{Node: 1, At: faults.Duration(100 * time.Millisecond)}}}}
			return f
		}},
		{"maxbatch-burst", func(t *testing.T) Fleet {
			f := coalesceFleet(t, func(_ int, c *Config) {
				c.Scheduler.MaxBatch = 2
				c.Scheduler.InstanceTarget = 6
			})
			for i := range f.Deployments {
				reqs, err := workload.Generate(workload.TraceConfig{
					Seed: int64(80 + i), RPS: 30, Duration: 4 * time.Second, MeanOutput: 16, MaxOutput: 32,
				})
				if err != nil {
					t.Fatal(err)
				}
				f.Deployments[i].Requests = reqs
			}
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, ps := checkCoalescedMatchesPerStep(t, tc.cfg(t))
			if co.Work.IterationEnds >= ps.Work.IterationEnds {
				t.Errorf("iteration-end events: coalesced %d, per step %d; want fewer", co.Work.IterationEnds, ps.Work.IterationEnds)
			}
			if strings.HasPrefix(tc.name, "crash") && co.NodeCrashes != 1 {
				t.Errorf("crash preset crashed %d nodes, want 1", co.NodeCrashes)
			}
			if tc.name == "crash-mid-run" && co.Requeued != 1 {
				t.Errorf("requeued %d requests, want 1", co.Requeued)
			}
			t.Logf("iteration-end events: coalesced %d, per step %d (%d iterations, %d completed)",
				co.Work.IterationEnds, ps.Work.IterationEnds, co.Work.Iterations, co.Completed)
		})
	}
}

// tieFleet is a single pool with one prewarmed instance for each of
// two deployments, "x" and "y", neither of which ever launches more.
func tieFleet(t *testing.T, x, y []workload.Request) Fleet {
	t.Helper()
	_, c := simFixture(t, "Qwen1.5-0.5B")
	c.Strategy = engine.StrategyMedusa
	c.Scheduler.Prewarm = 1
	c.Scheduler.MaxBatch = 4
	c.Scheduler.InstanceTarget = 100
	return Fleet{Nodes: 1, GPUsPerNode: 2, Deployments: []Deployment{
		{Name: "x", Config: c, Requests: x},
		{Name: "y", Config: c, Requests: y},
	}}
}

// tieCase is one arrangement of TestCoalescedRunTies: the traces of
// tieFleet's deployments x and y.
type tieCase struct {
	name string
	x, y []workload.Request
}

// tieCases places an arrival exactly on a step boundary of a coalesced
// run. Deployment x serves a1 (4 tokens) and a2 (24 tokens), both at
// time zero: a2 joins at the first boundary e1, and from e2 the two
// decode as one run whose steps end at e3 and e4, where a1 completes.
// Per-step code pushes a step's end when the step starts, so an arrival
// due on a boundary precedes that boundary's end only if it was pushed
// before the previous boundary. The y request's arrival, between e2 and
// e3, is what pushes a later arrival after e2.
func tieCases(t *testing.T) []tieCase {
	t.Helper()
	req := func(at time.Duration, out int) workload.Request {
		return workload.Request{Arrival: at, PromptTokens: 32, OutputTokens: out}
	}
	numbered := func(reqs ...workload.Request) []workload.Request {
		for i := range reqs {
			reqs[i].ID = i
		}
		return reqs
	}
	base := numbered(req(0, 4), req(0, 24))
	_, tr, _ := runTraced(t, tieFleet(t, base, numbered(req(time.Hour, 4))), &forcePerStep)
	var ends []time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "iteration" && strings.HasPrefix(sp.Track, "x/") {
			ends = append(ends, sp.End)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	if len(ends) < 4 {
		t.Fatalf("fixture ran %d iterations", len(ends))
	}
	e2, e3, e4 := ends[1], ends[2], ends[3]
	mid := e2 + (e3-e2)/2

	return []tieCase{
		// b is pushed at time zero, before e2: per-step code admits it
		// at e3, so the run is cut back to e3.
		{"pushed before the previous boundary", numbered(req(0, 4), req(0, 24), req(e3, 4)), numbered(req(time.Hour, 4))},
		// y's arrival pushes b after e2: b follows e3's end and waits
		// for e4.
		{"pushed after the previous boundary", numbered(req(0, 4), req(0, 24), req(e3, 4)), numbered(req(mid, 4))},
		// b lands on the run's own end, pushed before its last step
		// began: it is queued before a1 completes.
		{"on the run's end", numbered(req(0, 4), req(0, 24), req(e4, 4)), numbered(req(mid, 4))},
		// c cuts the run back to e3 and pulls b, due at e3, before the
		// cut end is pushed: b still follows that end.
		{"pulled by the splitting arrival", numbered(req(0, 4), req(0, 24), req(mid, 4), req(e3, 4)), numbered(req(time.Hour, 4))},
	}
}

// TestCoalescedRunTies checks each of tieCases against per-step
// execution.
func TestCoalescedRunTies(t *testing.T) {
	for _, tc := range tieCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			co, _ := checkCoalescedMatchesPerStep(t, tieFleet(t, tc.x, tc.y))
			if co.Completed != len(tc.x)+len(tc.y) {
				t.Fatalf("completed %d", co.Completed)
			}
		})
	}
}

// TestSynchronizedRunsCutTogether cuts two runs whose steps end at the
// same instants back to the same boundary: x's two instances start
// identical requests at time zero, and c arrives during their first
// coalesced step. Both cut ends are late and tie exactly; neither may
// yield to the other, and the first instance admits c, as per-step
// code does.
func TestSynchronizedRunsCutTogether(t *testing.T) {
	fleet := func(x []workload.Request) Fleet {
		f := tieFleet(t, x, []workload.Request{{Arrival: time.Hour, PromptTokens: 32, OutputTokens: 4}})
		f.GPUsPerNode = 3
		f.Deployments[0].Config.Scheduler.Prewarm = 2
		return f
	}
	pair := []workload.Request{
		{ID: 0, PromptTokens: 32, OutputTokens: 24},
		{ID: 1, PromptTokens: 32, OutputTokens: 24},
	}
	_, tr, _ := runTraced(t, fleet(pair), &forcePerStep)
	var ends []time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "iteration" && strings.HasSuffix(sp.Track, "inst-0") {
			ends = append(ends, sp.End)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	if len(ends) < 2 {
		t.Fatalf("fixture ran %d iterations", len(ends))
	}
	c := workload.Request{ID: 2, Arrival: ends[0] + (ends[1]-ends[0])/2, PromptTokens: 32, OutputTokens: 4}
	co, _ := checkCoalescedMatchesPerStep(t, fleet(append(pair, c)))
	if co.Completed != 4 {
		t.Fatalf("completed %d", co.Completed)
	}
}
