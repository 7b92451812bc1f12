package cluster

import (
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/serverless"
)

// fullScan hides the wrapped policy's autoscale.Horizon extension, so
// the simulator core asks it at every control tick: the full scan the
// reused answers must reproduce.
type fullScan struct{ autoscale.Policy }

// fullScanRetainer is fullScan for a policy that also vetoes
// scale-down: it hides Horizon but keeps Retain.
type fullScanRetainer struct {
	fullScan
	autoscale.Retainer
}

// TestCachedDesiredMatchesFullScan is the oracle for the incremental
// control plane. The core asks for a deployment's desired count only
// when its outstanding or live count changed or the answer's horizon
// (autoscale.Horizon) passed; hiding the horizon behind a pass-through
// wrapper forces a call on every tick. Under both the reactive and the
// predictive policy, the two runs must render byte-identically and do
// the same work — every Work counter equal except Desired, which the
// reuse must strictly reduce, and the iteration-end events and heap
// high-water mark: under the pass-through reactive policy the answer
// no longer holds until the counts change, so the core also runs every
// decode step as its own event there (coalesced decode runs need such
// an answer). The fixtures keep demand above the fleet's capacity, so
// deployments spend ticks blocked on GPUs.
func TestCachedDesiredMatchesFullScan(t *testing.T) {
	const traceSeconds = 25
	base := func(t *testing.T, tweak func(i int, c *serverless.Config)) serverless.Fleet {
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
	predictive := func(t *testing.T) *autoscale.Predictive {
		p, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type fixture struct {
		name string
		cfg  func(t *testing.T) serverless.Fleet
	}
	fixtures := []fixture{
		{"legacy", func(t *testing.T) serverless.Fleet {
			return base(t, func(int, *serverless.Config) {})
		}},
		{"batched-preempt", func(t *testing.T) serverless.Fleet {
			return base(t, func(_ int, c *serverless.Config) {
				c.Scheduler.Batch = sched.Params{BatchTokens: 256, KVBlocks: 80}
			})
		}},
		{"follow-ups", func(t *testing.T) serverless.Fleet {
			return base(t, func(_ int, c *serverless.Config) {
				c.Workload.FollowUp = &serverless.FollowUpModel{
					Probability: 0.4, ThinkTime: 800 * time.Millisecond, MaxTurns: 3}
			})
		}},
		{"prewarm", func(t *testing.T) serverless.Fleet {
			return base(t, func(_ int, c *serverless.Config) { c.Scheduler.Prewarm = 1 })
		}},
		{"tp2", func(t *testing.T) serverless.Fleet {
			return base(t, func(i int, c *serverless.Config) {
				if i == 1 {
					c.Strategy = engine.StrategyVLLM
					c.Cache = serverless.CacheSpec{}
					c.TPDegree = 2
				}
			})
		}},
		{"crash", func(t *testing.T) serverless.Fleet {
			cfg := base(t, func(int, *serverless.Config) {})
			plan := faults.Presets()["crash"]
			cfg.Faults = &plan
			return cfg
		}},
	}
	// The reactive subtests keep the fixtures' names; each predictive
	// one runs the same fixture under a fresh predictive policy per run.
	cases := fixtures
	for _, f := range fixtures {
		cases = append(cases, fixture{"predictive-" + f.name, func(t *testing.T) serverless.Fleet {
			cfg := f.cfg(t)
			cfg.Autoscaler = predictive(t)
			return cfg
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := serverless.RunFleet(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg(t)
			if p, ok := cfg.Autoscaler.(*autoscale.Predictive); ok {
				cfg.Autoscaler = fullScanRetainer{fullScan{p}, p}
			} else {
				cfg.Autoscaler = fullScan{autoscale.NewReactive()}
			}
			full, err := serverless.RunFleet(cfg)
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
			if strings.HasSuffix(tc.name, "crash") && reused.NodeCrashes != 1 {
				t.Errorf("crash preset crashed %d nodes, want 1", reused.NodeCrashes)
			}
		})
	}
}
