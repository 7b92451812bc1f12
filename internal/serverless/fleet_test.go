package serverless

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/workload"
)

// TestRunFleetFillsDefaults pins that a zero Fleet field means the
// documented default: a fleet holding only deployments runs exactly
// like one that spells the defaults out.
func TestRunFleetFillsDefaults(t *testing.T) {
	deps := []Deployment{
		{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 300*time.Millisecond),
			Requests: shortTrace(t, 3, 10)},
		{Name: "b", Config: idleOut(medusaDeployment(t, "Qwen1.5-1.8B", 2), 300*time.Millisecond),
			Requests: shortTrace(t, 2, 10)},
	}
	implicit, err := RunFleet(Fleet{Deployments: deps})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunFleet(Fleet{
		Nodes: 2, GPUsPerNode: 4,
		Cache:       artifactcache.DefaultParams(),
		Network:     artifactcache.DefaultNetwork(),
		Deployments: deps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(deps[0].Requests) + len(deps[1].Requests); implicit.Completed != want {
		t.Fatalf("defaulted fleet completed %d of %d requests", implicit.Completed, want)
	}
	if got, want := implicit.Render(), explicit.Render(); got != want {
		t.Fatalf("defaulted fleet renders differently:\n--- defaults\n%s\n--- explicit\n%s", got, want)
	}
}

// TestZipfRejectsBadSkew pins ZipfArrivals' skew check: math/rand's
// sampler never returns for a NaN or infinite skew and needs one
// above 1.
func TestZipfRejectsBadSkew(t *testing.T) {
	trace := shortTrace(t, 2, 5)
	for _, s := range []float64{math.NaN(), math.Inf(1), 1, 0.9} {
		if _, err := ZipfArrivals(workload.NewSlice(trace), 2, 1, s); err == nil {
			t.Errorf("ZipfArrivals accepted skew %g", s)
		}
	}
}

// TestZipfArrivalsSplit pins how ZipfArrivals splits one trace: every
// request is delivered once, in trace order, to a valid deployment;
// rank 0 is the most popular; and the same seed draws the same split.
func TestZipfArrivalsSplit(t *testing.T) {
	const nDeps = 4
	trace := shortTrace(t, 5, 30)
	split := func() []int {
		arr, err := ZipfArrivals(workload.NewSlice(trace), nDeps, 9, 1.3)
		if err != nil {
			t.Fatal(err)
		}
		var deps []int
		for {
			di, req, ok := arr.Next()
			if !ok {
				break
			}
			if di < 0 || di >= nDeps {
				t.Fatalf("arrival %d routed to deployment %d of %d", len(deps), di, nDeps)
			}
			if req != trace[len(deps)] {
				t.Fatalf("arrival %d is %+v, want trace request %+v", len(deps), req, trace[len(deps)])
			}
			deps = append(deps, di)
		}
		if err := arr.Err(); err != nil {
			t.Fatal(err)
		}
		return deps
	}
	deps := split()
	if len(deps) != len(trace) {
		t.Fatalf("delivered %d requests, had %d", len(deps), len(trace))
	}
	counts := make([]int, nDeps)
	for _, di := range deps {
		counts[di]++
	}
	if counts[0] <= counts[nDeps-1] {
		t.Fatalf("skew inverted: rank 0 got %d, last rank %d", counts[0], counts[nDeps-1])
	}
	if again := split(); !slices.Equal(deps, again) {
		t.Fatal("same seed drew a different split")
	}
}

// TestRenderDeploymentWithoutTraffic renders a fleet in which one
// batched deployment draws no traffic: its TTFT and TPOT samples are
// empty, and Render reports zero quantiles instead of panicking.
func TestRenderDeploymentWithoutTraffic(t *testing.T) {
	busy := medusaDeployment(t, "Qwen1.5-0.5B", 1)
	idle := medusaDeployment(t, "Qwen1.5-1.8B", 2)
	idle.Scheduler.Batch = batchParams
	trace := shortTrace(t, 2, 5)
	res, err := RunFleet(Fleet{
		Deployments: []Deployment{{Name: "busy", Config: busy}, {Name: "idle", Config: idle}},
		Arrivals:    MergeArrivals([]workload.Source{workload.NewSlice(trace), workload.NewSlice(nil)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerDeployment[0].Completed; got != len(trace) {
		t.Fatalf("busy deployment completed %d of %d", got, len(trace))
	}
	out := res.Render()
	for _, want := range []string{
		"deployment idle             completed     0  ttft p50 0s           p99 0s           cold_starts    0",
		"  tpot p50 0s           p99 0s           preemptions 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
