package serverless

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/engine"
)

// fixtureModels are the zoo models the fleet smokes and benchmarks
// deploy, in roughly ascending artifact size (the Zipf workloads map
// popularity rank onto this order).
var fixtureModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B", "Yi-6B",
	"Falcon-7B", "Llama2-13B", "Qwen1.5-4B", "Qwen1.5-14B", "Yi-9B",
}

// fixtureConfigs caches each fixture model's Medusa deployment: the
// offline phase runs once per model per test binary.
var fixtureConfigs = map[string]Config{}

// medusaDeployment builds one Medusa-strategy deployment config for a
// fixture model.
func medusaDeployment(t testing.TB, name string, seed int64) Config {
	t.Helper()
	c, ok := fixtureConfigs[name]
	if !ok {
		_, c = simFixture(t, name)
		c.Strategy = engine.StrategyMedusa
		fixtureConfigs[name] = c
	}
	c.Seed = seed
	return c
}

func idleOut(cfg Config, d time.Duration) Config {
	cfg.Scheduler.IdleTimeout = d
	return cfg
}

// churnConfig is a fleet sized so artifacts contend for cache space:
// tiers hold one or two of the fixture artifacts (1.6–3 MiB each), and
// short idle timeouts force continual relaunching.
func churnConfig(policy artifactcache.PolicyKind) Fleet {
	const MiB = 1 << 20
	p := artifactcache.DefaultParams()
	p.RAMBytes = 3 * MiB
	p.SSDBytes = 6 * MiB
	p.Policy = policy
	return Fleet{
		Nodes:          2,
		GPUsPerNode:    4,
		Cache:          p,
		LocalityWeight: DefaultLocalityWeight,
		Seed:           7,
	}
}
