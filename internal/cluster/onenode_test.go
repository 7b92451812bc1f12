package cluster

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// TestOneNodeFleetMatchesSinglePool is the metamorphic guard between
// the two simulator front ends: a one-node fleet with N GPUs and W warm
// containers must serve a trace exactly as the single-pool simulator
// with an N-GPU pool and W warm containers does. The fixtures use the
// vLLM strategy, which fetches no artifact, so the node cache never
// enters the picture.
func TestOneNodeFleetMatchesSinglePool(t *testing.T) {
	deps := func(t *testing.T, tweak func(i int, c *serverless.Config)) []serverless.Deployment {
		var out []serverless.Deployment
		for i, name := range []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B"} {
			c := medusaDeployment(t, name, int64(3+i))
			c.Strategy = engine.StrategyVLLM
			c.Cache = serverless.CacheSpec{}
			c.Scheduler.IdleTimeout = 300 * time.Millisecond
			c.Scheduler.InstanceTarget = 2
			c.Workload.FollowUp = &serverless.FollowUpModel{
				Probability: 0.4, ThinkTime: 800 * time.Millisecond, MaxTurns: 3}
			if i == 0 {
				c.Scheduler.Prewarm = 1
			}
			tweak(i, &c)
			out = append(out, serverless.Deployment{
				Name: name, Config: c, Requests: genTrace(t, int64(40+i), 3, 20)})
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		gpus, warm  int
		deployments func(t *testing.T) []serverless.Deployment
	}{
		{"legacy", 4, 2, func(t *testing.T) []serverless.Deployment {
			return deps(t, func(int, *serverless.Config) {})
		}},
		{"batched", 4, 1, func(t *testing.T) []serverless.Deployment {
			return deps(t, func(_ int, c *serverless.Config) {
				// A small KV pool so the scheduler preempts.
				c.Scheduler.Batch = sched.Params{BatchTokens: 256, KVBlocks: 80}
			})
		}},
		{"tp2", 6, 2, func(t *testing.T) []serverless.Deployment {
			return deps(t, func(i int, c *serverless.Config) {
				if i == 1 {
					c.TPDegree = 2
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, err := Run(Config{
				Nodes: 1, GPUsPerNode: tc.gpus, WarmContainersPerNode: tc.warm,
				Deployments: tc.deployments(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := serverless.RunMulti(serverless.MultiConfig{
				NumGPUs: tc.gpus, WarmContainers: tc.warm,
				Deployments: tc.deployments(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			if fleet.TotalColdStarts <= 2*tc.warm {
				t.Fatalf("fixture too tame: %d cold starts never exhaust %d warm containers", fleet.TotalColdStarts, tc.warm)
			}
			if fleet.GPUSeconds != pool.GPUSeconds {
				t.Errorf("gpu-seconds: fleet %v, pool %v", fleet.GPUSeconds, pool.GPUSeconds)
			}
			for i, f := range fleet.PerDeployment {
				p := pool.PerDeployment[i]
				if f.Completed != p.Completed || f.ColdStarts != p.ColdStarts || f.Preemptions != p.Preemptions {
					t.Errorf("%s: completed/cold starts/preemptions: fleet %d/%d/%d, pool %d/%d/%d",
						f.Name, f.Completed, f.ColdStarts, f.Preemptions, p.Completed, p.ColdStarts, p.Preemptions)
				}
				for _, s := range []struct {
					name        string
					fleet, pool *metrics.Sample
				}{{"ttft", f.TTFT, p.TTFT}, {"e2e", f.E2E, p.E2E}, {"tpot", f.TPOT, p.TPOT}} {
					if (s.fleet == nil) != (s.pool == nil) {
						t.Errorf("%s %s: fleet sample %v, pool sample %v", f.Name, s.name, s.fleet, s.pool)
						continue
					}
					if s.fleet == nil {
						continue
					}
					fs, _ := s.fleet.Summary()
					ps, _ := s.pool.Summary()
					if fs != ps {
						t.Errorf("%s %s: fleet %+v, pool %+v", f.Name, s.name, fs, ps)
					}
				}
			}
		})
	}
}
