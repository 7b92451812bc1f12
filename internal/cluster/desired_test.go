package cluster

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// fullScan hides the wrapped policy's concrete type, so the simulator
// core cannot recognise the reactive policy and asks it at every
// control tick: the full scan the reused answers must reproduce.
type fullScan struct{ autoscale.Policy }

// TestCachedDesiredMatchesFullScan is the oracle for the incremental
// control plane. Under the reactive policy the core asks for a
// deployment's desired count only when its outstanding or live count
// changed; hiding the policy behind a pass-through wrapper forces a
// call on every tick. The two runs must render byte-identically and do
// the same work — every Work counter equal except Desired, which the
// reuse must strictly reduce, and the iteration-end events and heap
// high-water mark: the pass-through policy is not the reactive policy,
// so the core also runs every decode step as its own event there
// (coalesced decode runs need the reactive policy). The fixtures keep
// demand above the fleet's capacity, so deployments spend ticks blocked
// on GPUs.
func TestCachedDesiredMatchesFullScan(t *testing.T) {
	const traceSeconds = 25
	base := func(t *testing.T, tweak func(i int, c *serverless.Config)) Config {
		cfg := churnConfig(artifactcache.PolicyLRU)
		cfg.GPUsPerNode = 2
		for i, name := range []string{"Qwen1.5-0.5B", "Llama2-7B"} {
			c := idleOut(medusaDeployment(t, name, int64(i+1)), 300*time.Millisecond)
			c.Scheduler.InstanceTarget = 2
			tweak(i, &c)
			cfg.Deployments = append(cfg.Deployments, serverless.Deployment{
				Name: name, Config: c, Requests: genTrace(t, int64(60+i), 4, traceSeconds)})
		}
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"legacy", func(t *testing.T) Config {
			return base(t, func(int, *serverless.Config) {})
		}},
		{"batched-preempt", func(t *testing.T) Config {
			return base(t, func(_ int, c *serverless.Config) {
				c.Scheduler.Batch = sched.Params{BatchTokens: 256, KVBlocks: 80}
			})
		}},
		{"follow-ups", func(t *testing.T) Config {
			return base(t, func(_ int, c *serverless.Config) {
				c.Workload.FollowUp = &serverless.FollowUpModel{
					Probability: 0.4, ThinkTime: 800 * time.Millisecond, MaxTurns: 3}
			})
		}},
		{"prewarm", func(t *testing.T) Config {
			return base(t, func(_ int, c *serverless.Config) { c.Scheduler.Prewarm = 1 })
		}},
		{"tp2", func(t *testing.T) Config {
			return base(t, func(i int, c *serverless.Config) {
				if i == 1 {
					c.Strategy = engine.StrategyVLLM
					c.Cache = serverless.CacheSpec{}
					c.TPDegree = 2
				}
			})
		}},
		{"warm-exhaustion", func(t *testing.T) Config {
			cfg := base(t, func(int, *serverless.Config) {})
			cfg.WarmContainersPerNode = 1
			return cfg
		}},
		{"crash", func(t *testing.T) Config {
			cfg := base(t, func(int, *serverless.Config) {})
			plan := faults.Presets()["crash"]
			cfg.Faults = serverless.FaultSpec{Plan: &plan}
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := Run(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg(t)
			cfg.Autoscaler = fullScan{autoscale.NewReactive()}
			full, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reused.Render()+reused.Metrics.Render(), full.Render()+full.Metrics.Render(); got != want {
				t.Fatalf("reused answers diverge from the full scan:\n--- reused\n%s\n--- full scan\n%s", got, want)
			}
			if reused.TotalColdStarts < 2*len(cfg.Deployments) {
				t.Fatalf("fixture too tame: %d cold starts", reused.TotalColdStarts)
			}
			rw, fw := reused.Work, full.Work
			if rw.Desired >= fw.Desired {
				t.Errorf("Desired calls: reused %d, full scan %d; want fewer", rw.Desired, fw.Desired)
			}
			rw.Desired, fw.Desired = 0, 0
			rw.IterationEnds, fw.IterationEnds = 0, 0
			rw.HeapMax, fw.HeapMax = 0, 0
			if rw != fw {
				t.Errorf("work differs beyond Desired calls:\n reused    %+v\n full scan %+v", rw, fw)
			}
			t.Logf("Desired calls: reused %d, full scan %d; %d cold starts, %d completed", reused.Work.Desired, full.Work.Desired, reused.TotalColdStarts, reused.Completed)
			if tc.name == "crash" && reused.NodeCrashes != 1 {
				t.Errorf("crash preset crashed %d nodes, want 1", reused.NodeCrashes)
			}
		})
	}
}
