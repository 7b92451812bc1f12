package main

import (
	"fmt"
	"os"
	"time"

	"github.com/medusa-repro/medusa/internal/cliconfig"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// simulator turns the parsed flags into runs of the simulator core.
// Both modes build the same deployments and traffic; -nodes only picks
// the entry point (serverless.RunFleet or RunMulti) and the printer.
type simulator struct {
	v        *cliconfig.Values
	strategy engine.Strategy
	plan     *faults.Plan
	// requests is the -requests trace file ("" generates the trace).
	requests string
	// slo is the -slo threshold the single-pool printer reports.
	slo   time.Duration
	store *storage.Store
	// arts caches each model's offline-phase output across strategies.
	arts map[string]offline
}

// offline is one model's offline-phase output.
type offline struct {
	art   *medusa.Artifact
	bytes uint64
}

// fleetMode reports whether -nodes selected the multi-node fleet.
func (s *simulator) fleetMode() bool { return s.v.Nodes > 0 }

// deployments builds one deployment per model, serving with strategy.
// Each model's offline phase runs at most once per invocation.
func (s *simulator) deployments(strategy engine.Strategy) ([]serverless.Deployment, error) {
	names := s.v.ModelNames()
	deps := make([]serverless.Deployment, 0, len(names))
	for i, name := range names {
		cfg, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		sc := serverless.Config{
			Model: cfg, Strategy: strategy, Store: s.store,
			Seed:             int64(i + 1),
			RetainPerRequest: s.v.Retain,
			Scheduler:        s.v.SchedulerConfig(),
			Workload:         s.v.WorkloadConfig(),
		}
		if strategy.NeedsArtifact() {
			o, ok := s.arts[name]
			if !ok {
				if s.fleetMode() {
					fmt.Printf("running offline phase for %s...\n", name)
				} else {
					fmt.Println("running offline phase (artifact not cached)...")
				}
				art, report, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Store: s.store, Seed: 7})
				if err != nil {
					return nil, err
				}
				o = offline{art: art, bytes: report.ArtifactBytes}
				if s.arts == nil {
					s.arts = make(map[string]offline)
				}
				s.arts[name] = o
			}
			sc.Cache = serverless.CacheSpec{Artifact: o.art, ArtifactBytes: o.bytes}
		}
		deps = append(deps, serverless.Deployment{Name: name, Config: sc})
	}
	return deps, nil
}

// trace returns replication rep's request trace: the -requests file, or
// a trace generated with the seed offset by rep.
func (s *simulator) trace(rep int64) ([]workload.Request, error) {
	if s.requests == "" {
		tc := s.v.TraceConfig()
		tc.Seed += rep
		return workload.Generate(tc)
	}
	f, err := os.Open(s.requests)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

// fleet assembles replication rep's configuration: seeds derive from
// the replication index and the deployments are cloned, each
// replication routing its own traffic. Control-plane policies are
// constructed fresh per replication — a stateful autoscaler must not
// be shared across runs.
func (s *simulator) fleet(deps []serverless.Deployment, rep int64) (serverless.Fleet, error) {
	v := s.v
	seed := v.Seed + rep
	params, err := v.CacheParams()
	if err != nil {
		return serverless.Fleet{}, err
	}
	scaler, err := v.AutoscalePolicy()
	if err != nil {
		return serverless.Fleet{}, err
	}
	route, err := v.RouterPolicy()
	if err != nil {
		return serverless.Fleet{}, err
	}
	f := serverless.Fleet{
		Nodes:          v.Nodes,
		GPUsPerNode:    v.GPUsPerNode,
		Cache:          params,
		LocalityWeight: v.Locality,
		PrewarmSSD:     v.PrewarmSSD,
		Seed:           seed,
		Deployments:    append([]serverless.Deployment(nil), deps...),
		Faults:         s.plan,
		Autoscaler:     scaler,
		Router:         route,
		SLO:            v.SLO(),
	}
	switch {
	case v.Diurnal > 0:
		// Diurnal fleet traffic: one phase-staggered source per
		// deployment, Zipf-weighted by -zipf through DiurnalFleet's
		// (i+1)^−skew weighting.
		dc := v.DiurnalConfig()
		dc.Seed = seed
		srcs, err := workload.DiurnalFleet(dc, len(f.Deployments), v.Zipf)
		if err != nil {
			return f, err
		}
		f.Arrivals = serverless.MergeArrivals(srcs)
	case v.Stream:
		tc := v.TraceConfig()
		tc.Seed = seed
		src, err := workload.NewPoisson(tc)
		if err != nil {
			return f, err
		}
		if len(f.Deployments) > 1 {
			f.Arrivals, err = serverless.ZipfArrivals(src, len(f.Deployments), seed+1, v.Zipf)
		} else {
			f.Arrivals = serverless.MergeArrivals([]workload.Source{src})
		}
		return f, err
	default:
		trace, err := s.trace(rep)
		if err != nil {
			return f, err
		}
		if len(f.Deployments) > 1 {
			f.Arrivals, err = serverless.ZipfArrivals(workload.NewSlice(trace), len(f.Deployments), seed+1, v.Zipf)
		} else {
			f.Deployments[0].Requests = trace
		}
		return f, err
	}
	return f, nil
}

// run simulates replication rep of f: the fleet with -nodes, otherwise
// one pool of -gpus GPUs without an artifact cache.
func (s *simulator) run(f serverless.Fleet, rep int64) (*serverless.FleetResult, error) {
	if s.fleetMode() {
		return serverless.RunFleet(f)
	}
	// The pool has no fleet seed: replications re-seed each deployment.
	for i := range f.Deployments {
		f.Deployments[i].Config.Seed += rep
	}
	return serverless.RunMulti(serverless.MultiConfig{
		NumGPUs:     s.v.GPUs,
		Deployments: f.Deployments,
		Arrivals:    f.Arrivals,
		Faults:      f.Faults,
	})
}
