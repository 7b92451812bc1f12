package main

import (
	"fmt"
	"os"

	"github.com/medusa-repro/medusa/internal/cliconfig"
	"github.com/medusa-repro/medusa/internal/cluster"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/replicate"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// runCluster executes the fleet simulation and prints its Render (or,
// with -reps > 1, per-replication stats plus mean ± 95% CI), followed
// by the core's work counters when work is set. All shared knobs
// arrive pre-parsed in v (see internal/cliconfig).
func runCluster(v *cliconfig.Values, baseTC workload.TraceConfig, tracePath string, plan *faults.Plan, reps int, parallel, work bool) error {
	seed := baseTC.Seed
	params, err := v.CacheParams()
	if err != nil {
		return err
	}
	strategy, err := engine.ParseStrategy(v.Strategy)
	if err != nil {
		return err
	}
	names := v.ModelNames()

	store := storage.NewStore(storage.DefaultArray())
	deps := make([]serverless.Deployment, 0, len(names))
	for i, name := range names {
		cfg, err := model.ByName(name)
		if err != nil {
			return err
		}
		sc := serverless.Config{
			Model: cfg, Strategy: strategy, Store: store,
			Seed:      int64(i + 1),
			Scheduler: serverless.Scheduler{IdleTimeout: v.Idle, Batch: v.BatchParams()},
		}
		if strategy.NeedsArtifact() {
			fmt.Printf("running offline phase for %s...\n", name)
			art, report, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Store: store, Seed: 7})
			if err != nil {
				return err
			}
			sc.Cache = serverless.CacheSpec{Artifact: art, ArtifactBytes: report.ArtifactBytes}
		}
		deps = append(deps, serverless.Deployment{Name: name, Config: sc})
	}

	// mkCfg assembles one replication's fleet config: seeds derive from
	// the replication index, deployments are cloned (Run treats them
	// read-only, but each replication routes its own trace). Control-
	// plane policies are constructed fresh per replication — a stateful
	// autoscaler must not be shared across runs.
	mkCfg := func(rep int64) (cluster.Config, error) {
		tc := baseTC
		tc.Seed = seed + rep
		rdeps := append([]serverless.Deployment(nil), deps...)
		scaler, err := v.AutoscalePolicy()
		if err != nil {
			return cluster.Config{}, err
		}
		route, err := v.RouterPolicy()
		if err != nil {
			return cluster.Config{}, err
		}
		ccfg := cluster.Config{
			Nodes:            v.Nodes,
			GPUsPerNode:      v.GPUsPerNode,
			Cache:            params,
			LocalityWeight:   v.Locality,
			PrewarmSSD:       v.PrewarmSSD,
			Seed:             seed + rep,
			Deployments:      rdeps,
			Faults:           serverless.FaultSpec{Plan: plan},
			RetainPerRequest: v.Retain,
			Autoscaler:       scaler,
			Router:           route,
			SLO:              v.SLO(),
		}
		if v.Diurnal > 0 {
			// Diurnal fleet traffic: one phase-staggered source per
			// deployment, Zipf-weighted by -zipf (flat split when the knob
			// is at its >1 Poisson-mode default is deliberate — Zipf skew
			// composes through DiurnalFleet's (i+1)^−skew weighting).
			dc := v.DiurnalConfig()
			dc.Seed = seed + rep
			srcs, err := workload.DiurnalFleet(dc, len(rdeps), v.Zipf)
			if err != nil {
				return ccfg, err
			}
			for i := range rdeps {
				rdeps[i].Source = srcs[i]
			}
			return ccfg, nil
		}
		if v.Stream {
			src, err := workload.NewPoisson(tc)
			if err != nil {
				return ccfg, err
			}
			if len(rdeps) > 1 {
				ccfg.Arrivals, err = cluster.ZipfArrivals(src, len(rdeps), seed+1+rep, v.Zipf)
				if err != nil {
					return ccfg, err
				}
			} else {
				ccfg.Arrivals = serverless.MergeArrivals([]workload.Source{src})
			}
			return ccfg, nil
		}
		trace, err := workload.Generate(tc)
		if err != nil {
			return ccfg, err
		}
		if len(rdeps) > 1 {
			ccfg.Deployments, err = cluster.ZipfDeployments(rdeps, trace, seed+1+rep, v.Zipf)
			if err != nil {
				return ccfg, err
			}
		} else {
			rdeps[0].Requests = trace
		}
		return ccfg, nil
	}

	if reps > 1 {
		if tracePath != "" || work {
			return fmt.Errorf("-reps > 1 is incompatible with -trace and -work")
		}
		stats, err := replicate.Run(reps, repWorkers(parallel), func(rep int) (repStats, error) {
			ccfg, err := mkCfg(int64(rep))
			if err != nil {
				return repStats{}, err
			}
			res, err := cluster.Run(ccfg)
			if err != nil {
				return repStats{}, err
			}
			return clusterRepStats(res), nil
		})
		if err != nil {
			return err
		}
		printRepTable(stats)
		return nil
	}

	ccfg, err := mkCfg(0)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if tracePath != "" {
		tracer = obs.NewTracer()
		ccfg.Tracer = tracer
	}
	res, err := cluster.Run(ccfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if work {
		fmt.Print("\n" + res.Work.Render(res.Completed))
	}

	if tracer != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteChrome(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nChrome trace written to %s (%d spans, %d tracks) — load at ui.perfetto.dev\n",
			tracePath, tracer.Len(), len(tracer.Tracks()))
	}
	return nil
}
