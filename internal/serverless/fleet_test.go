package serverless

import (
	"math"
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

// TestZipfRejectsBadSkew pins the skew check of both Zipf splitters:
// math/rand's sampler never returns for a NaN or infinite skew and
// needs one above 1.
func TestZipfRejectsBadSkew(t *testing.T) {
	deps := []Deployment{{Name: "a"}, {Name: "b"}}
	trace := shortTrace(t, 2, 5)
	for _, s := range []float64{math.NaN(), math.Inf(1), 1} {
		if _, err := ZipfDeployments(deps, trace, 1, s); err == nil {
			t.Errorf("ZipfDeployments accepted skew %g", s)
		}
		if _, err := ZipfArrivals(workload.NewSlice(trace), len(deps), 1, s); err == nil {
			t.Errorf("ZipfArrivals accepted skew %g", s)
		}
	}
}
