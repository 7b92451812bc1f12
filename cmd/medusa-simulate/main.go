// Command medusa-simulate runs the serverless cluster simulation for
// one (model, strategy, workload) combination and prints latency
// statistics — the building block behind Figures 10 and 11. With
// -trace it also writes the run's span set as Chrome trace-event JSON
// (loadable in Perfetto, one track per instance); with -phases it adds
// a per-strategy cold-start phase breakdown whose per-phase sums equal
// the end-to-end cold-start durations exactly.
//
// With -batch-tokens N (N > 0) instances serve with iteration-level
// continuous batching on a paged KV cache (-kv-blocks,
// -chunked-prefill): per-token completion events make TTFT and TPOT
// first-class, and KV exhaustion preempts the lowest-id sequence for
// recompute-on-resume.
//
// With -nodes N (N > 0) the command runs a multi-node fleet: each node
// fronts the shared artifact registry with a tiered cache
// (-cache-ram/-cache-ssd MiB, -cache-policy lru|lfu|costaware) and
// cold-starting instances are placed by a locality-aware scorer
// (-locality). -models co-locates several deployments sharing the
// fleet under Zipf popularity (-zipf). Without -nodes the same
// deployments run on one pool of -gpus GPUs without an artifact cache,
// and setting a flag only the fleet reads is an error.
// -work adds the simulator core's work counters, in total and per
// request.
//
// The shared flag surface (workload, serving, batching and cluster
// knobs) is declared once in internal/cliconfig.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"github.com/medusa-repro/medusa/internal/cliconfig"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/prof"
	"github.com/medusa-repro/medusa/internal/replicate"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/workload"
)

// fleetOnly names the flags only a fleet (-nodes) reads.
var fleetOnly = []string{"autoscale", "router", "slo-ttft", "slo-tpot", "cache-policy",
	"cache-ram", "cache-ssd", "locality", "prewarm-ssd", "gpus-per-node"}

func main() {
	v := cliconfig.Register(flag.CommandLine)
	slo := flag.Duration("slo", time.Second, "TTFT SLO threshold to report attainment against")
	tracePath := flag.String("trace", "", "write the run's spans as Chrome trace-event JSON to this file")
	phases := flag.Bool("phases", false, "print per-strategy cold-start phase breakdowns (runs every paper strategy)")
	requestsIn := flag.String("requests", "", "read the request trace from a JSONL file instead of generating one")
	requestsOut := flag.String("requests-out", "", "write the generated request trace to a JSONL file for replay")
	faultsSpec := flag.String("faults", "", "fault plan: preset name (none | mild | heavy | crash) or path to a plan JSON file")
	reps := flag.Int("reps", 1, "independent-seed replications; > 1 prints per-rep stats plus mean ± 95% CI")
	parallel := flag.Bool("parallel", false, "run replications on a worker pool (one per core); output is identical either way")
	work := flag.Bool("work", false, "print the simulator core's work counters (events by kind, simulated iterations, autoscale calls, dispatch-walk steps, heap high-water mark)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fail := func(err error) {
		stopProf()
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}()
	switch {
	case *reps < 1:
		fail(fmt.Errorf("-reps must be ≥ 1, got %d", *reps))
	case *reps > 1 && (*requestsIn != "" || *requestsOut != "" || *tracePath != "" || *phases || *work):
		fail(fmt.Errorf("-reps > 1 is incompatible with -requests, -requests-out, -trace, -phases and -work"))
	case (v.Stream || v.Diurnal > 0) && (v.Nodes == 0 || *requestsIn != "" || *requestsOut != ""):
		fail(fmt.Errorf("-stream and -diurnal need -nodes and exclude -requests and -requests-out"))
	case v.Nodes == 0 && len(v.ModelNames()) > 1:
		fail(fmt.Errorf("a multi-model fleet (-models) needs -nodes"))
	}
	if v.Nodes == 0 {
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains(fleetOnly, f.Name) {
				fail(fmt.Errorf("-%s needs -nodes", f.Name))
			}
		})
	}
	strategy, err := engine.ParseStrategy(v.Strategy)
	if err != nil {
		fail(err)
	}
	s := &simulator{v: v, strategy: strategy, requests: *requestsIn, slo: *slo,
		store: storage.NewStore(storage.DefaultArray())}
	if *faultsSpec != "" {
		p, err := faults.LoadPlan(*faultsSpec)
		if err != nil {
			fail(err)
		}
		s.plan = &p
	}

	if *requestsOut != "" {
		reqs, err := s.trace(0)
		if err != nil {
			fail(err)
		}
		if err := writeFile(*requestsOut, func(w io.Writer) error { return workload.WriteTrace(w, reqs) }); err != nil {
			fail(err)
		}
		fmt.Printf("request trace written to %s (%d requests)\n", *requestsOut, len(reqs))
	}
	// Building the deployments runs each model's offline phase once;
	// replication workers then share the artifacts read-only.
	deps, err := s.deployments(strategy)
	if err != nil {
		fail(err)
	}

	if *reps > 1 {
		s.printRepHeader(*reps, *parallel)
		stats, err := replicate.Run(*reps, repWorkers(*parallel), func(rep int) (repStats, error) {
			f, err := s.fleet(deps, int64(rep))
			if err != nil {
				return repStats{}, err
			}
			res, err := s.run(f, int64(rep))
			if err != nil {
				return repStats{}, err
			}
			return s.stats(f, res), nil
		})
		if err != nil {
			fail(err)
		}
		printRepTable(stats)
		return
	}

	f, err := s.fleet(deps, 0)
	if err != nil {
		fail(err)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
		f.Tracer = tracer
		for i := range f.Deployments {
			f.Deployments[i].Config.Tracer = tracer
		}
	}
	res, err := s.run(f, 0)
	if err != nil {
		fail(err)
	}
	s.print(f, res)
	if *work {
		fmt.Print("\n" + res.Work.Render(res.Completed))
	}

	if tracer != nil {
		if err := writeFile(*tracePath, tracer.WriteChrome); err != nil {
			fail(err)
		}
		fmt.Printf("\nChrome trace written to %s (%d spans, %d tracks) — load at ui.perfetto.dev\n",
			*tracePath, tracer.Len(), len(tracer.Tracks()))
	}

	if *phases {
		fmt.Println("\ncold-start phase breakdown (exclusive attribution; sums are drift-free):")
		for _, ps := range engine.Strategies() {
			pres := res
			if ps != strategy {
				pdeps, err := s.deployments(ps)
				if err != nil {
					fail(err)
				}
				pf, err := s.fleet(pdeps, 0)
				if err != nil {
					fail(err)
				}
				if pres, err = s.run(pf, 0); err != nil {
					fail(err)
				}
			}
			for _, d := range pres.PerDeployment {
				label := ps.String()
				if len(pres.PerDeployment) > 1 {
					label = d.Name + " " + label
				}
				fmt.Printf("\n%s (%d cold starts, end-to-end total %.3fs):\n", label, d.ColdStarts, d.ColdStartTotal.Seconds())
				fmt.Print(d.ColdStartPhases.Table())
				if drift := d.ColdStartPhases.Total() - d.ColdStartTotal; drift != 0 {
					fail(fmt.Errorf("phase attribution drifted by %v for %s", drift, label))
				}
			}
		}
	}
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
