package cluster

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// TestClusterStreamingMatchesSlice pins the two traffic paths against
// each other: the slice-based Zipf split and the pull-based ZipfArrivals
// stream drive byte-identical fleet results at a fixed seed (the Zipf
// draw sequences are identical, so every request lands on the same
// deployment at the same instant in both forms).
func TestClusterStreamingMatchesSlice(t *testing.T) {
	const nDeps = 4
	mkDeps := func() []serverless.Deployment {
		deps := make([]serverless.Deployment, 0, nDeps)
		for i, name := range fixtureModels[:nDeps] {
			deps = append(deps, serverless.Deployment{
				Name:   name,
				Config: idleOut(medusaDeployment(t, name, int64(i+1)), 250*time.Millisecond),
			})
		}
		return deps
	}
	trace := genTrace(t, 91, 6, 25)

	slice := churnConfig(artifactcache.PolicyLRU)
	split, err := serverless.ZipfDeployments(mkDeps(), trace, 43, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range split {
		// The equivalence only holds when the slice splitter didn't have
		// to reshuffle an empty deployment; the trace is sized so it
		// doesn't.
		if len(d.Requests) < 2 {
			t.Fatalf("trace too small: deployment %s got %d requests", d.Name, len(d.Requests))
		}
	}
	slice.Deployments = split
	sliceRes, err := serverless.RunFleet(slice)
	if err != nil {
		t.Fatal(err)
	}

	stream := churnConfig(artifactcache.PolicyLRU)
	stream.Deployments = mkDeps()
	stream.Arrivals, err = serverless.ZipfArrivals(workload.NewSlice(trace), nDeps, 43, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := serverless.RunFleet(stream)
	if err != nil {
		t.Fatal(err)
	}

	want := sliceRes.Render() + sliceRes.Metrics.Render()
	got := streamRes.Render() + streamRes.Metrics.Render()
	if want != got {
		t.Fatalf("streaming fleet diverged from slice mode:\n--- slice\n%s\n--- stream\n%s", want, got)
	}
}

// TestClusterRetainMatchesReservoir pins the aggregation modes against
// each other on a trace under the reservoir cap: retaining every
// observation and the bounded deterministic reservoir must render the
// same bytes.
func TestClusterRetainMatchesReservoir(t *testing.T) {
	run := func(retain bool) string {
		cfg := churnConfig(artifactcache.PolicyLRU)
		split, err := serverless.ZipfDeployments([]serverless.Deployment{
			{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 250*time.Millisecond)},
			{Name: "b", Config: idleOut(medusaDeployment(t, "Llama2-7B", 2), 250*time.Millisecond)},
		}, genTrace(t, 23, 4, 20), 43, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range split {
			split[i].Config.RetainPerRequest = retain
		}
		cfg.Deployments = split
		res, err := serverless.RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render() + res.Metrics.Render()
	}
	if want, got := run(true), run(false); want != got {
		t.Fatalf("retained and reservoir aggregation diverged:\n--- retained\n%s\n--- reservoir\n%s", want, got)
	}
}
