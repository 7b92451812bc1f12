package serverless

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/workload"
)

// multiSummary flattens the observable outcome of a multi-deployment
// run into one comparable string: every latency summary, counter and
// aggregate the exporters read.
func multiSummary(res *FleetResult) string {
	out := fmt.Sprintf("cold=%d gpu=%.9f makespan=%v\n", res.TotalColdStarts, res.GPUSeconds, res.Makespan)
	for _, d := range res.PerDeployment {
		out += fmt.Sprintf("completed=%d cold=%d peak=%d throughput=%.9f\n",
			d.Completed, d.ColdStarts, d.PeakInstances, d.Throughput)
		ttft, _ := d.TTFT.Summary()
		e2e, _ := d.E2E.Summary()
		out += fmt.Sprintf("ttft: %+v\ne2e:  %+v\n", ttft, e2e)
		out += d.Metrics.Render()
	}
	return out
}

// streamingFixture builds a two-deployment shared pool with distinct
// arrival traces. The traces are small enough that the bounded
// reservoir retains every observation, so streaming and retained
// aggregation must agree exactly, not just statistically.
func streamingFixture(t testing.TB) (MultiConfig, [][]workload.Request) {
	t.Helper()
	_, base := simFixture(t, "Qwen1.5-0.5B")
	base.Strategy = engine.StrategyMedusa
	base.Scheduler.IdleTimeout = 300 * time.Millisecond
	a := base
	a.Seed = 1
	b := base
	b.Seed = 2
	traceA := shortTrace(t, 4, 15)
	traceB, err := workload.Generate(workload.TraceConfig{
		Seed: 77, RPS: 2, Duration: 15 * time.Second, MeanOutput: 64, MaxOutput: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return MultiConfig{
		NumGPUs: 8,
		Deployments: []Deployment{
			{Name: "a", Config: a, Requests: traceA},
			{Name: "b", Config: b, Requests: traceB},
		},
	}, [][]workload.Request{traceA, traceB}
}

// TestStreamingMatchesRetainedAggregation pins the two ways traffic
// and aggregation are configured against each other: a pre-merged
// Arrivals stream with bounded reservoir aggregation produces exactly
// the summaries the deployments' Requests with retained aggregation
// compute, on traces under the reservoir cap.
func TestStreamingMatchesRetainedAggregation(t *testing.T) {
	retainedCfg, traces := streamingFixture(t)
	for i := range retainedCfg.Deployments {
		retainedCfg.Deployments[i].Config.RetainPerRequest = true
	}
	retained, err := RunMulti(retainedCfg)
	if err != nil {
		t.Fatal(err)
	}

	streamed, err := RunMulti(mergedFixture(t, traces))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := multiSummary(retained), multiSummary(streamed); want != got {
		t.Fatalf("streaming aggregation diverged from retained:\n--- retained\n%s\n--- streamed\n%s", want, got)
	}
}

// mergedFixture is streamingFixture fed by one pre-merged Arrivals
// stream of traces instead of the deployments' Requests.
func mergedFixture(t testing.TB, traces [][]workload.Request) MultiConfig {
	t.Helper()
	cfg, _ := streamingFixture(t)
	perDep := make([]workload.Source, len(traces))
	for i := range cfg.Deployments {
		cfg.Deployments[i].Requests = nil
		perDep[i] = workload.NewSlice(traces[i])
	}
	cfg.Arrivals = MergeArrivals(perDep)
	return cfg
}

// TestStreamingDeterministicAcrossGOMAXPROCS pins byte-identical
// streaming-mode output at a fixed seed regardless of scheduler
// parallelism.
func TestStreamingDeterministicAcrossGOMAXPROCS(t *testing.T) {
	_, traces := streamingFixture(t)
	run := func() string {
		res, err := RunMulti(mergedFixture(t, traces))
		if err != nil {
			t.Fatal(err)
		}
		return multiSummary(res)
	}
	first := run()
	prev := runtime.GOMAXPROCS(1)
	second := run()
	runtime.GOMAXPROCS(prev)
	if first != second {
		t.Fatalf("streaming output differs under GOMAXPROCS=1:\n--- default\n%s\n--- gomaxprocs=1\n%s", first, second)
	}
}

// TestMergeDeliversArrivalsBeforeSourceFailure merges a slice with a
// source that fails after k requests: every arrival pulled before the
// failure is delivered in order, then the stream stops with the
// failing source's error.
func TestMergeDeliversArrivalsBeforeSourceFailure(t *testing.T) {
	const k = 3
	var slice []workload.Request
	for i := 0; i < 10; i++ {
		slice = append(slice, workload.Request{ID: i, Arrival: time.Duration(2*i) * time.Millisecond, PromptTokens: 8, OutputTokens: 4})
	}
	m := MergeArrivals([]workload.Source{workload.NewSlice(slice), &failSource{k: k, first: time.Millisecond, step: 2 * time.Millisecond}})
	var got []time.Duration
	for {
		dep, req, ok := m.Next()
		if !ok {
			break
		}
		if want := int(req.Arrival/time.Millisecond) % 2; dep != want {
			t.Errorf("arrival %v from deployment %d, want %d", req.Arrival, dep, want)
		}
		got = append(got, req.Arrival)
	}
	// Slice arrivals 0, 2, 4 interleave with the failing source's 1, 3,
	// 5; it fails on its next pull, after handing over 5 ms.
	if len(got) != 2*k {
		t.Fatalf("delivered %v, want the %d arrivals up to the failing source's last", got, 2*k)
	}
	for i, at := range got {
		if at != time.Duration(i)*time.Millisecond {
			t.Fatalf("delivered %v, want 0ms..%dms in order", got, 2*k-1)
		}
	}
	if m.Err() != errSourceFailed {
		t.Fatalf("stream stopped with %v, want the failing source's error", m.Err())
	}
}
