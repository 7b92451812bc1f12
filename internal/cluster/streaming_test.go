package cluster

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// TestClusterRetainMatchesReservoir pins the aggregation modes against
// each other on a trace under the reservoir cap: retaining every
// observation and the bounded deterministic reservoir must render the
// same bytes.
func TestClusterRetainMatchesReservoir(t *testing.T) {
	run := func(retain bool) string {
		cfg := churnConfig(artifactcache.PolicyLRU)
		cfg.Deployments = []serverless.Deployment{
			{Name: "a", Config: idleOut(medusaDeployment(t, "Qwen1.5-0.5B", 1), 250*time.Millisecond)},
			{Name: "b", Config: idleOut(medusaDeployment(t, "Llama2-7B", 2), 250*time.Millisecond)},
		}
		for i := range cfg.Deployments {
			cfg.Deployments[i].Config.RetainPerRequest = retain
		}
		cfg.Arrivals = zipfSplit(t, genTrace(t, 23, 4, 20), len(cfg.Deployments))
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
