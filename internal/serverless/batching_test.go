package serverless

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/workload"
)

// batchedTrace generates arrivals clamped so the largest request needs
// 40 KV blocks — under the fixtures' 48-block pool (admissible) but
// tight enough that concurrent decodes preempt.
func batchedTrace(t testing.TB, seed int64, rps float64, seconds int) []workload.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.TraceConfig{
		Seed: seed, RPS: rps, Duration: time.Duration(seconds) * time.Second,
		MaxPrompt: 512, MeanOutput: 64, MaxOutput: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// batchedFixture builds a two-deployment shared pool in batched
// execution mode with a KV pool sized to provoke preemption.
func batchedFixture(t testing.TB) (MultiConfig, [][]workload.Request) {
	t.Helper()
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Scheduler.IdleTimeout = 300 * time.Millisecond
	base.Scheduler.Batch = sched.Params{BatchTokens: 256, KVBlocks: 48, ChunkedPrefill: true}
	a := base
	a.Seed = 1
	b := base
	b.Seed = 2
	traceA := batchedTrace(t, 42, 6, 15)
	traceB := batchedTrace(t, 77, 2, 15)
	return MultiConfig{
		NumGPUs: 4,
		Deployments: []Deployment{
			{Name: "a", Config: a, Requests: traceA},
			{Name: "b", Config: b, Requests: traceB},
		},
	}, [][]workload.Request{traceA, traceB}
}

// batchedSummary extends multiSummary with the batched-mode outputs —
// the TPOT sample and preemption counter — so identity tests cover
// them too.
func batchedSummary(res *FleetResult) string {
	out := multiSummary(res)
	for _, d := range res.PerDeployment {
		if d.TPOT != nil {
			s, _ := d.TPOT.Summary()
			out += fmt.Sprintf("tpot: %+v\n", s)
		}
		out += fmt.Sprintf("preemptions=%d\n", d.Preemptions)
	}
	return out
}

// TestBatchedCompletesAllRequestsUnderPreemption pins liveness under KV
// pressure: every request finishes even though the tight pool forces
// the scheduler to evict and recompute sequences.
func TestBatchedCompletesAllRequestsUnderPreemption(t *testing.T) {
	cfg, traces := batchedFixture(t)
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preempted := 0
	for i, d := range res.PerDeployment {
		if d.Completed != len(traces[i]) {
			t.Errorf("deployment %d completed %d of %d requests", i, d.Completed, len(traces[i]))
		}
		if d.TPOT == nil {
			t.Errorf("deployment %d: batched mode did not record TPOT", i)
		}
		preempted += d.Preemptions
	}
	if preempted == 0 {
		t.Fatal("fixture produced no preemptions; KV pool is not tight enough to exercise eviction")
	}
}

// TestBatchedByteIdenticalAcrossRepsAndGOMAXPROCS pins the determinism
// contract in batched mode: a fixed seed yields byte-identical result
// summaries and Chrome trace exports across repetitions and scheduler
// parallelism.
func TestBatchedByteIdenticalAcrossRepsAndGOMAXPROCS(t *testing.T) {
	run := func() (string, string) {
		cfg, _ := batchedFixture(t)
		tracer := obs.NewTracer()
		for i := range cfg.Deployments {
			cfg.Deployments[i].Config.Tracer = tracer
		}
		res, err := RunMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var chrome bytes.Buffer
		if err := tracer.WriteChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		return batchedSummary(res), chrome.String()
	}
	sum1, chrome1 := run()
	sum2, chrome2 := run()
	if sum1 != sum2 {
		t.Fatalf("batched summary differs across reps:\n--- rep 1\n%s\n--- rep 2\n%s", sum1, sum2)
	}
	if chrome1 != chrome2 {
		t.Fatal("batched Chrome export differs across reps at a fixed seed")
	}
	prev := runtime.GOMAXPROCS(1)
	sum3, chrome3 := run()
	runtime.GOMAXPROCS(prev)
	if sum1 != sum3 {
		t.Fatalf("batched summary differs under GOMAXPROCS=1:\n--- default\n%s\n--- gomaxprocs=1\n%s", sum1, sum3)
	}
	if chrome1 != chrome3 {
		t.Fatal("batched Chrome export differs under GOMAXPROCS=1")
	}
}

// TestBatchedTTFTWithinE2E pins the per-token event ordering: every
// request's first token precedes its completion, so with full
// retention each TTFT order statistic is bounded by the corresponding
// E2E order statistic, and both samples count every completion.
func TestBatchedTTFTWithinE2E(t *testing.T) {
	cfg, _ := batchedFixture(t)
	for i := range cfg.Deployments {
		cfg.Deployments[i].Config.RetainPerRequest = true
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.PerDeployment {
		if d.TTFT.Len() != d.Completed || d.E2E.Len() != d.Completed {
			t.Errorf("deployment %d: TTFT/E2E sample counts %d/%d want %d completions",
				i, d.TTFT.Len(), d.E2E.Len(), d.Completed)
		}
		for _, p := range []float64{25, 50, 75, 90, 99, 100} {
			if ttft, e2e := d.TTFT.Percentile(p), d.E2E.Percentile(p); ttft > e2e {
				t.Errorf("deployment %d: TTFT p%.0f %v exceeds E2E p%.0f %v", i, p, ttft, p, e2e)
			}
		}
	}
}

// TestBatchedIterationSpansTileExactly pins the tracing contract:
// virtual time never regresses within a span, and each iteration
// span's children (graph capture, prefill chunks, decode) partition
// its interval exactly — phase attribution cannot drift.
func TestBatchedIterationSpansTileExactly(t *testing.T) {
	cfg, _ := batchedFixture(t)
	tracer := obs.NewTracer()
	for i := range cfg.Deployments {
		cfg.Deployments[i].Config.Tracer = tracer
	}
	if _, err := RunMulti(cfg); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	children := make(map[int][]obs.SpanData)
	iterations := 0
	for _, sp := range spans {
		if sp.Start < 0 || sp.End < sp.Start {
			t.Fatalf("span %q [%v, %v] regresses virtual time", sp.Name, sp.Start, sp.End)
		}
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for _, sp := range spans {
		if sp.Name != "iteration" {
			continue
		}
		iterations++
		kids := children[sp.ID]
		if len(kids) == 0 {
			t.Fatalf("iteration span %d has no child spans", sp.ID)
		}
		cursor := sp.Start
		for _, k := range kids {
			if k.Start != cursor {
				t.Fatalf("iteration %d: child %q starts at %v, want %v (gap or overlap)",
					sp.ID, k.Name, k.Start, cursor)
			}
			cursor = k.End
		}
		if cursor != sp.End {
			t.Fatalf("iteration %d: children end at %v, iteration ends at %v", sp.ID, cursor, sp.End)
		}
	}
	if iterations == 0 {
		t.Fatal("no iteration spans recorded in batched mode")
	}
}

// TestBatchedStreamingMatchesRetainedAggregation extends the streaming
// equivalence contract to batched mode: pull-based arrivals must
// produce exactly the retained path's summaries, including the
// per-token TTFT/TPOT outputs.
func TestBatchedStreamingMatchesRetainedAggregation(t *testing.T) {
	retainedCfg, traces := batchedFixture(t)
	retained, err := RunMulti(retainedCfg)
	if err != nil {
		t.Fatal(err)
	}

	streamCfg, _ := batchedFixture(t)
	perDep := make([]workload.Source, len(traces))
	for i := range streamCfg.Deployments {
		streamCfg.Deployments[i].Requests = nil
		perDep[i] = workload.NewSlice(traces[i])
	}
	streamCfg.Arrivals = MergeArrivals(perDep)
	streamed, err := RunMulti(streamCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := batchedSummary(retained), batchedSummary(streamed)
	if want != got {
		t.Fatalf("batched streaming aggregation diverged from retained:\n--- retained\n%s\n--- streamed\n%s", want, got)
	}
}
