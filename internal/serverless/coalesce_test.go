package serverless

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
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

// runTraced runs the fleet under opts with every span going to one
// tracer and returns the result and the tracer's Chrome export.
func runTraced(t *testing.T, f Fleet, opts runOptions) (*FleetResult, *obs.Tracer, string) {
	t.Helper()
	tr := obs.NewTracer()
	f.Tracer = tr
	deps := make([]Deployment, len(f.Deployments))
	copy(deps, f.Deployments)
	for i := range deps {
		deps[i].Config.Tracer = tr
	}
	f.Deployments = deps
	res, err := runFleet(f, opts)
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
// mark. Per step, every iteration has its own end event except one cut
// by a node crash, whose end is cancelled with its instance: at most
// one per GPU of each crashed node. Each run gets a fleet of its own
// from build, so stateful policies start fresh.
func checkCoalescedMatchesPerStep(t *testing.T, build func(t *testing.T) Fleet) (coalesced, perStep *FleetResult) {
	t.Helper()
	f, err := build(t).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	co, _, coTrace := runTraced(t, f, runOptions{})
	ps, _, psTrace := runTraced(t, build(t), runOptions{forcePerStep: true})
	if got, want := fleetSummary(co), fleetSummary(ps); got != want {
		t.Fatalf("coalesced runs diverge from per-step execution:\n--- coalesced\n%s\n--- per step\n%s", got, want)
	}
	if coTrace != psTrace {
		t.Fatalf("coalesced runs change the Chrome trace (%d vs %d bytes)", len(coTrace), len(psTrace))
	}
	cw, pw := co.Work, ps.Work
	if cut := pw.Iterations - pw.IterationEnds; cut < 0 || cut > ps.NodeCrashes*f.GPUsPerNode || ps.NodeCrashes == 0 && cut != 0 {
		t.Errorf("per step: %d iteration-end events for %d iterations with %d node crashes", pw.IterationEnds, pw.Iterations, ps.NodeCrashes)
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

// batchParams is the continuous-batching configuration of the batched
// oracle fleets.
var batchParams = sched.Params{BatchTokens: 512, KVBlocks: 256, ChunkedPrefill: true}

// batchedFleet is coalesceFleet in batched execution mode.
func batchedFleet(t *testing.T, tweak func(i int, c *Config)) Fleet {
	return coalesceFleet(t, func(i int, c *Config) {
		c.Scheduler.Batch = batchParams
		tweak(i, c)
	})
}

// predictive returns a fresh predictive policy (it is stateful: one per
// run) whose short window caps many decode runs.
func predictive(t *testing.T) autoscale.Policy {
	t.Helper()
	scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return scaler
}

// mixedHorizon states a different horizon per deployment. Deployment
// 0 is reactive: its answer holds until its counts change. Every other
// deployment's answer changes at each multiple of window, as a windowed
// forecaster's would: the reactive count, plus one instance in odd
// windows while work is outstanding. It logs every Desired call.
type mixedHorizon struct {
	autoscale.Reactive
	window time.Duration
	calls  []string
}

func (m *mixedHorizon) Desired(dep int, o autoscale.Observation) int {
	m.calls = append(m.calls, fmt.Sprintf("%d@%v:%d/%d", dep, o.Now, o.Outstanding, o.Live))
	n := m.Reactive.Desired(dep, o)
	if dep > 0 && n > 0 {
		n += int(o.Now/m.window) % 2
	}
	return n
}

func (m *mixedHorizon) Until(dep int, now time.Duration) time.Duration {
	if dep == 0 {
		return m.Reactive.Until(dep, now)
	}
	return now - now%m.window + m.window
}

// crashMidRun is a fleet of one instance per node, each decoding one
// long request when node 1 dies: its request is requeued and cuts node
// 0's run.
func crashMidRun(t *testing.T) Fleet {
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
}

// maxBatchBurst is a fleet of batch-2 instances under bursts that keep
// their batches full with requests queued.
func maxBatchBurst(t *testing.T) Fleet {
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
}

// TestCoalescedDecodeMatchesPerStep is the oracle for coalesced decode
// runs in both execution modes: forcing one event per iteration must
// change nothing but the number of iteration-end events.
func TestCoalescedDecodeMatchesPerStep(t *testing.T) {
	t.Parallel()
	crash := func(f Fleet) Fleet {
		plan := faults.Presets()["crash"]
		f.Faults = FaultSpec{Plan: &plan}
		return f
	}
	followUps := func(_ int, c *Config) {
		c.Workload.FollowUp = &FollowUpModel{Probability: 0.4, ThinkTime: 800 * time.Millisecond, MaxTurns: 3}
	}
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Fleet
	}{
		{"legacy", func(t *testing.T) Fleet {
			return coalesceFleet(t, func(int, *Config) {})
		}},
		{"follow-ups", func(t *testing.T) Fleet {
			return coalesceFleet(t, followUps)
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
			return crash(coalesceFleet(t, func(int, *Config) {}))
		}},
		{"crash-mid-run", crashMidRun},
		{"maxbatch-burst", maxBatchBurst},
		{"predictive", func(t *testing.T) Fleet {
			f := coalesceFleet(t, func(int, *Config) {})
			f.Autoscaler = predictive(t)
			return f
		}},
		{"batched-maxbatch-burst", func(t *testing.T) Fleet {
			// Full batches with requests queued: batched runs coalesce
			// until a completion makes room.
			f := maxBatchBurst(t)
			for i := range f.Deployments {
				f.Deployments[i].Config.Scheduler.Batch = batchParams
			}
			return f
		}},
		{"batched", func(t *testing.T) Fleet {
			return batchedFleet(t, func(int, *Config) {})
		}},
		{"batched-routed-predictive", func(t *testing.T) Fleet {
			f := batchedFleet(t, func(int, *Config) {})
			f.Autoscaler = predictive(t)
			f.Router = &router.Scored{}
			f.SLO = SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond}
			return f
		}},
		{"batched-crash", func(t *testing.T) Fleet {
			return crash(batchedFleet(t, func(int, *Config) {}))
		}},
		{"batched-crash-mid-run", func(t *testing.T) Fleet {
			f := crashMidRun(t)
			f.Deployments[0].Config.Scheduler.Batch = batchParams
			return f
		}},
		{"batched-follow-ups", func(t *testing.T) Fleet {
			return batchedFleet(t, followUps)
		}},
		{"batched-tight-kv", func(t *testing.T) Fleet {
			// Short prompts in a pool of a few blocks: decode steps run
			// out of blocks and preempt.
			f := batchedFleet(t, func(_ int, c *Config) { c.Scheduler.Batch.KVBlocks = 12 })
			for i := range f.Deployments {
				reqs, err := workload.Generate(workload.TraceConfig{
					Seed: int64(90 + i), RPS: 8, Duration: 10 * time.Second,
					MeanPrompt: 48, MaxPrompt: 96, MeanOutput: 24, MaxOutput: 64,
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
			co, ps := checkCoalescedMatchesPerStep(t, tc.cfg)
			if co.Work.IterationEnds >= ps.Work.IterationEnds {
				t.Errorf("iteration-end events: coalesced %d, per step %d; want fewer", co.Work.IterationEnds, ps.Work.IterationEnds)
			}
			if strings.Contains(tc.name, "crash") && co.NodeCrashes != 1 {
				t.Errorf("crash preset crashed %d nodes, want 1", co.NodeCrashes)
			}
			if tc.name == "batched-tight-kv" {
				preempted := 0
				for _, d := range co.PerDeployment {
					preempted += d.Preemptions
				}
				if preempted == 0 {
					t.Error("tight KV pool preempted nothing")
				}
				t.Logf("%d preemptions", preempted)
			}
			if strings.HasSuffix(tc.name, "crash-mid-run") && co.Requeued != 1 {
				t.Errorf("requeued %d requests, want 1", co.Requeued)
			}
			t.Logf("iteration-end events: coalesced %d, per step %d (%d iterations, %d completed)",
				co.Work.IterationEnds, ps.Work.IterationEnds, co.Work.Iterations, co.Completed)
		})
	}
}

// TestMixedHorizonsCapRuns checks that a coalesced run stops at the
// first boundary at or after the earliest horizon of any deployment, not
// only its own: under mixedHorizon, deployment 0's runs must not skip a
// step boundary at which per-step code asks about deployment 1. The
// policy's Desired calls, instants included, must match per-step
// execution's one for one.
func TestMixedHorizonsCapRuns(t *testing.T) {
	t.Parallel()
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			var policies []*mixedHorizon
			co, ps := checkCoalescedMatchesPerStep(t, func(t *testing.T) Fleet {
				f := coalesceFleet(t, func(_ int, c *Config) {
					if batched {
						c.Scheduler.Batch = batchParams
					}
				})
				p := &mixedHorizon{window: 3 * time.Millisecond}
				policies = append(policies, p)
				f.Autoscaler = p
				return f
			})
			if co.Work.IterationEnds >= ps.Work.IterationEnds {
				t.Errorf("iteration-end events: coalesced %d, per step %d; want fewer", co.Work.IterationEnds, ps.Work.IterationEnds)
			}
			if got, want := strings.Join(policies[0].calls, " "), strings.Join(policies[1].calls, " "); got != want {
				t.Fatalf("Desired calls differ from per-step execution (%d vs %d calls)", len(policies[0].calls), len(policies[1].calls))
			}
			t.Logf("%d Desired calls; iteration-end events: coalesced %d, per step %d", len(policies[0].calls), co.Work.IterationEnds, ps.Work.IterationEnds)
		})
	}
}

// shrinkingHorizon answers like the reactive baseline, but its first
// horizon is an hour away and every later one a millisecond.
type shrinkingHorizon struct {
	autoscale.Reactive
	asked bool
}

func (p *shrinkingHorizon) Until(_ int, now time.Duration) time.Duration {
	if !p.asked {
		p.asked = true
		return now + time.Hour
	}
	return now + time.Millisecond
}

// TestBackwardHorizonIsAnError checks that the core refuses a horizon
// earlier than the deployment's previous one: coalesced runs were
// capped at the old one.
func TestBackwardHorizonIsAnError(t *testing.T) {
	f := coalesceFleet(t, func(int, *Config) {})
	f.Autoscaler = &shrinkingHorizon{}
	if _, err := RunFleet(f); err == nil || !strings.Contains(err.Error(), "horizon went backwards") {
		t.Fatalf("RunFleet error = %v, want a backward-horizon error", err)
	}
}

// tieFleet is a single pool with one prewarmed instance for each of
// two deployments, "x" and "y", neither of which ever launches more,
// in batched execution mode if batched is set.
func tieFleet(t *testing.T, batched bool, x, y []workload.Request) Fleet {
	t.Helper()
	_, c := simFixture(t, "Qwen1.5-0.5B")
	return tieFleetOf(c, batched, x, y)
}

// tieFleetOf is tieFleet on the fixture configuration c.
func tieFleetOf(c Config, batched bool, x, y []workload.Request) Fleet {
	c.Strategy = engine.StrategyMedusa
	c.Scheduler.Prewarm = 1
	c.Scheduler.MaxBatch = 4
	c.Scheduler.InstanceTarget = 100
	if batched {
		c.Scheduler.Batch = batchParams
	}
	return Fleet{Nodes: 1, GPUsPerNode: 2, Deployments: []Deployment{
		{Name: "x", Config: c, Requests: x},
		{Name: "y", Config: c, Requests: y},
	}}
}

// tieCase is one arrangement of TestCoalescedRunTies: the traces of
// tieFleet's deployments x and y, and its execution mode.
type tieCase struct {
	name    string
	batched bool
	x, y    []workload.Request
}

// fleet builds the case's tieFleet.
func (tc tieCase) fleet(t *testing.T) Fleet { return tieFleet(t, tc.batched, tc.x, tc.y) }

// tieCases places an arrival exactly on a step boundary of a coalesced
// run, in both execution modes. Deployment x serves a1 (4 tokens) and
// a2 (24 tokens), both at time zero, and a1 completes at the fourth
// step boundary e4. In legacy mode a2 joins at the first boundary e1,
// and from e2 the two decode as one run whose steps end at e3 and e4;
// in batched mode both are admitted at time zero, and from e1 they
// decode as one run whose steps end at e2, e3 and e4. Per-step code
// pushes a step's end when the step starts, so an arrival due on a
// boundary precedes that boundary's end only if it was pushed before
// the previous boundary. The y request's arrival, between e2 and e3, is
// what pushes a later arrival after e2.
func tieCases(t *testing.T) []tieCase {
	t.Helper()
	var cases []tieCase
	for _, batched := range []bool{false, true} {
		cases = append(cases, tieCasesIn(t, batched)...)
	}
	return cases
}

// tieCasesIn builds tieCases for one execution mode; batched cases are
// named with a "batched/" prefix.
func tieCasesIn(t *testing.T, batched bool) []tieCase {
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
	_, tr, _ := runTraced(t, tieFleet(t, batched, base, numbered(req(time.Hour, 4))), runOptions{forcePerStep: true})
	var ends []time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "iteration" && strings.HasPrefix(sp.Track, "x/") {
			ends = append(ends, sp.End)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	if len(ends) < 6 {
		t.Fatalf("fixture ran %d iterations", len(ends))
	}
	e2, e3, e4, e5, e6 := ends[1], ends[2], ends[3], ends[4], ends[5]
	mid := e2 + (e3-e2)/2

	cases := []tieCase{
		// b is pushed at time zero, before e2: per-step code admits it
		// at e3, so the run is cut back to e3.
		{"pushed before the previous boundary", false, numbered(req(0, 4), req(0, 24), req(e3, 4)), numbered(req(time.Hour, 4))},
		// y's arrival pushes b after e2: b follows e3's end and waits
		// for e4.
		{"pushed after the previous boundary", false, numbered(req(0, 4), req(0, 24), req(e3, 4)), numbered(req(mid, 4))},
		// b lands on the run's own end, pushed before its last step
		// began: it is queued before a1 completes.
		{"on the run's end", false, numbered(req(0, 4), req(0, 24), req(e4, 4)), numbered(req(mid, 4))},
		// c cuts the run back to e3 and pulls b, due at e3, before the
		// cut end is pushed: b still follows that end.
		{"pulled by the splitting arrival", false, numbered(req(0, 4), req(0, 24), req(mid, 4), req(e3, 4)), numbered(req(time.Hour, 4))},
		// From e4 a2 decodes alone. y's arrival pushes c after e4, so c,
		// landing on e5, cuts the run back to e6, and pulls b, due at e6,
		// at e5 itself: the instant the cut end's last step starts. Per
		// step, x's step end at e5 pops before c and pushes the end at
		// e6 before c pulls b, so b follows that end: the cut end, pushed
		// at e5 as b is, pops first.
		{"pulled on the cut end's last step start", false, numbered(req(0, 4), req(0, 24), req(e5, 4), req(e6, 4)), numbered(req(e4+(e5-e4)/2, 4))},
	}
	for i := range cases {
		cases[i].batched = batched
		if batched {
			cases[i].name = "batched/" + cases[i].name
		}
	}
	return cases
}

// TestCoalescedRunTies checks each of tieCases against per-step
// execution.
func TestCoalescedRunTies(t *testing.T) {
	t.Parallel()
	for _, tc := range tieCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			co, _ := checkCoalescedMatchesPerStep(t, tc.fleet)
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
	t.Parallel()
	fleet := func(x []workload.Request) Fleet {
		f := tieFleet(t, false, x, []workload.Request{{Arrival: time.Hour, PromptTokens: 32, OutputTokens: 4}})
		f.GPUsPerNode = 3
		f.Deployments[0].Config.Scheduler.Prewarm = 2
		return f
	}
	pair := []workload.Request{
		{ID: 0, PromptTokens: 32, OutputTokens: 24},
		{ID: 1, PromptTokens: 32, OutputTokens: 24},
	}
	_, tr, _ := runTraced(t, fleet(pair), runOptions{forcePerStep: true})
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
	co, _ := checkCoalescedMatchesPerStep(t, func(*testing.T) Fleet { return fleet(append(pair, c)) })
	if co.Completed != 4 {
		t.Fatalf("completed %d", co.Completed)
	}
}

// randomTieFleet builds the fleet of one TestCoalescedRunTiesRandom
// seed: a tieFleet in either execution mode with one or two prewarmed x
// instances and one to three x requests at time zero, to which six
// arrivals for x or y are added one at a time. Each lands on an
// iteration start or end of the fleet so far under per-step execution,
// at or after the previous arrival, so that it ties exactly; now and
// then it lands midway between two such instants instead. y's hour-late
// request only keeps its trace non-empty.
func randomTieFleet(t *testing.T, fixture Config, seed int64) func(t *testing.T) Fleet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batched := rng.Intn(2) == 1
	xInsts := 1 + rng.Intn(2)
	req := func(at time.Duration) workload.Request {
		return workload.Request{Arrival: at, PromptTokens: 32, OutputTokens: 2 + rng.Intn(23)}
	}
	var x []workload.Request
	for n := 1 + rng.Intn(3); n > 0; n-- {
		x = append(x, req(0))
	}
	y := []workload.Request{{Arrival: time.Hour, PromptTokens: 32, OutputTokens: 4}}
	build := func(*testing.T) Fleet {
		f := tieFleetOf(fixture, batched, x, y)
		f.GPUsPerNode = xInsts + 1
		f.Deployments[0].Config.Scheduler.Prewarm = xInsts
		return f
	}
	var last time.Duration
	for i := 0; i < 6; i++ {
		_, tr, _ := runTraced(t, build(t), runOptions{forcePerStep: true})
		var at []time.Duration
		for _, sp := range tr.Spans() {
			if sp.Name == "iteration" && sp.Start < time.Hour {
				at = append(at, sp.Start, sp.End)
			}
		}
		slices.Sort(at)
		at = slices.Compact(at)
		at = at[sort.Search(len(at), func(j int) bool { return at[j] >= last }):]
		if len(at) == 0 {
			at = append(at, last)
		}
		k := rng.Intn(len(at))
		last = at[k]
		if k+1 < len(at) && rng.Intn(5) == 0 {
			last += (at[k+1] - at[k]) / 2
		}
		if r := req(last); rng.Intn(2) == 0 {
			x = append(x, r)
		} else {
			y = slices.Insert(y, len(y)-1, r)
		}
	}
	return build
}

// tieSeeds is how many randomTieFleet seeds TestCoalescedRunTiesRandom
// checks from seed 0.
const tieSeeds = 200

// readSeeds reads a testdata list of seeds, one a line, "#" comments.
func readSeeds(t *testing.T, name string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []int64
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestCoalescedRunTiesRandom checks randomTieFleet's fleets against
// per-step execution, seed by seed: seeds below tieSeeds, and every seed
// in testdata/tie_fixed, which diverged under an earlier tie rule (of
// seeds 0-1999, with tieSeeds = 2000). Other seeds are not guarded.
func TestCoalescedRunTiesRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("checks hundreds of random fleets")
	}
	t.Parallel()
	var seeds []int64
	for seed := int64(0); seed < tieSeeds; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range readSeeds(t, "testdata/tie_fixed") {
		if seed >= tieSeeds {
			seeds = append(seeds, seed)
		}
	}
	// The runs only read the fixture's store, so every fleet shares it.
	_, fixture := simFixture(t, "Qwen1.5-0.5B")
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			checkCoalescedMatchesPerStep(t, randomTieFleet(t, fixture, seed))
		})
	}
}
