// Command bench is the repository's benchmark. It measures the
// simulator's own speed — simulated requests completed per wall-second
// on three fleet and pool workloads — and the offline materialize →
// restore pipeline's speed in zoo models per wall-second, plus CPU,
// allocations, memory and set-up time. With -trace 1 it runs a separate
// traced pass that attributes the CPU profile to the repository's
// layers and counts calls through the simulator's pluggable seams, and
// writes its span and profile files to .bench_build/trace.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//
// These four flags are the benchmark's whole interface: they are the
// arguments a harness that runs BENCHMARK.json's command passes.
// Without -workload every workload runs, each in its own child process.
// Each run prints one `<workload>/<metric> <value> <unit>` line per
// metric and, as its last line, a JSON summary. See README.md.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// traceDir, relative to the repository root, receives the traced pass's
// <workload>.spans.json and <workload>.<i>.pprof files.
var traceDir = filepath.Join(".bench_build", "trace")

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run prints.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "ratio"})
	}
	for _, l := range inclusiveLayers {
		defs = append(defs, metricDef{"cpu_incl." + l, "ratio"})
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{"span." + s + "_ms", "ms"})
	}
	for _, c := range callNames {
		defs = append(defs, metricDef{"calls." + c + "_per_req", "count/req"})
	}
	defs = append(defs, workMetrics...)
	return append(defs,
		metricDef{"iter_count", "count"},
		metricDef{"iter_q1_s", "s"},
		metricDef{"iter_q3_s", "s"},
		metricDef{"trace_overhead_frac", "ratio"},
	)
}()

// workMetrics are counts read from a workload's output and inputs:
// what the simulated fleet did (work.*) and the simulated outcome a
// pure performance change must not move (sim.*). Workloads that do not
// exercise a layer report 0.
var workMetrics = []metricDef{
	{"work.cold_starts_per_kreq", "count/kreq"},
	{"work.cache_hit_ratio", "ratio"},
	{"work.cache_misses", "count"},
	{"work.cache_coalesced", "count"},
	{"work.cache_evictions", "count"},
	{"work.cache_mb_fetched", "MB"},
	{"work.preemptions_per_kreq", "count/kreq"},
	{"work.slo_attainment", "ratio"},
	{"work.node_seconds", "s"},
	{"work.wire_kb_per_model", "KB"},
	{"work.delta_ratio", "ratio"},
	{"sim.ttft_p99_ms", "ms"},
	{"sim.cold_start_ms", "ms"},
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-churn, fleet-diurnal, pool-burst or offline-zoo (empty: all, each in a child process)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds of timed iterations per run")
	traceFlag := flag.Int("trace", 0, "1: run the traced pass, print the per-layer metrics instead of the end-to-end ones and write spans and profiles to "+traceDir)
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *traceFlag); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(*w, runConfig{
		p: params{seed: *seed, scale: 1}, seconds: *seconds,
		setupReps: 3, minIters: 3,
		trace: *traceFlag == 1, traceDir: traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, one after the
// other, passing their output through.
func runAll(seed int64, seconds float64, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// runConfig is one run's settings.
type runConfig struct {
	p params
	// seconds is the wall time of timed iterations to measure.
	seconds float64
	// setupReps is how many times the run builds its inputs; setup_s
	// reports the median.
	setupReps int
	// minIters is the fewest timed iterations the run (or each half of
	// a traced run) measures, whatever seconds says.
	minIters int
	trace    bool
	// traceDir receives a traced run's files.
	traceDir string
}

// result is one run's report.
type result struct {
	workload  string
	digest    string
	attempted int
	failed    int
	metrics   []metric
}

type metric struct {
	metricDef
	value float64
}

// check charges one iteration's ops: requests that did not complete
// fail, and every op fails if the output differs from the warm-up's.
func (r *result) check(prep *prepared, ref, out outcome) {
	r.attempted += prep.attempted
	switch {
	case out.digest != ref.digest:
		r.failed += prep.attempted
	case out.completed < prep.attempted:
		r.failed += prep.attempted - out.completed
	}
}

// loop is what a sequence of timed iterations measured.
type loop struct {
	iterS, opsPerS, cpuMSPerOp []float64
	ops                        int
	mallocs, allocBytes        uint64
	profiles                   [][]byte
}

// timeIterations runs timed iterations until budget seconds of them
// have run (and at least minIters), each after a forced collection so
// one iteration's garbage is not charged to the next. With a tracer,
// each iteration also records its own CPU profile.
func (r *result) timeIterations(prep *prepared, ref outcome, budget float64, minIters int, tr *tracer) (*loop, error) {
	l := &loop{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for total := 0.0; total < budget || len(l.iterS) < minIters; {
		runtime.GC()
		var prof bytes.Buffer
		if tr != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		t0 := now()
		out, err := prep.iterate(tr)
		wall := now().Sub(t0).Seconds()
		cpu1, cpuErr := cpuTime()
		if tr != nil {
			pprof.StopCPUProfile()
			l.profiles = append(l.profiles, prof.Bytes())
		}
		if err := errors.Join(err, cpuErr); err != nil {
			return nil, err
		}
		r.check(prep, ref, out)
		total += wall
		l.ops += out.completed
		l.iterS = append(l.iterS, wall)
		l.opsPerS = append(l.opsPerS, float64(out.completed)/wall)
		l.cpuMSPerOp = append(l.cpuMSPerOp, ms(cpu1-cpu0)/float64(max(out.completed, 1)))
	}
	runtime.ReadMemStats(&after)
	l.mallocs = after.Mallocs - before.Mallocs
	l.allocBytes = after.TotalAlloc - before.TotalAlloc
	return l, nil
}

// run builds the workload's inputs rc.setupReps times, runs one
// untimed warm-up iteration whose output every later iteration must
// reproduce, then measures the end-to-end metrics, or with rc.trace the
// per-layer ones.
func run(w workloadDef, rc runConfig) (*result, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var setups []float64
	var prep *prepared
	for i := 0; i < rc.setupReps; i++ {
		t0 := now()
		p, err := w.setup(rc.p, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, now().Sub(t0).Seconds())
		prep = p
	}
	// Peak memory is the workload's, from the warm-up on, not that of
	// the repeated input builds.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	t0 := now()
	ref, err := prep.iterate(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	warm := now().Sub(t0).Seconds()
	r := &result{workload: w.name, digest: hex.EncodeToString(ref.digest[:])}
	r.check(prep, ref, ref)

	if !rc.trace {
		l, err := r.timeIterations(prep, ref, rc.seconds, rc.minIters, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		ops := float64(max(l.ops, 1))
		r.add(endToEnd,
			median(l.opsPerS),
			median(l.cpuMSPerOp),
			float64(l.mallocs)/ops,
			float64(l.allocBytes)/ops,
			rss,
			// Set-up is what a run pays before its first timed
			// iteration: building inputs (median of rc.setupReps) and
			// the warm-up, which absorbs any first-call costs.
			median(setups)+warm,
		)
		return r, nil
	}

	if err := r.measureTraced(rc, prep, ref, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// measureTraced runs an untraced half, the overhead baseline, then a
// traced half, writes the spans and profiles to rc.traceDir, and adds
// the per-layer metrics.
func (r *result) measureTraced(rc runConfig, prep *prepared, ref outcome, tr *tracer) error {
	plain, err := r.timeIterations(prep, ref, rc.seconds/2, rc.minIters, nil)
	if err != nil {
		return err
	}
	traced, err := r.timeIterations(prep, ref, rc.seconds/2, rc.minIters, tr)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rc.traceDir, 0o755); err != nil {
		return err
	}
	var samples []stackSample
	for i, p := range traced.profiles {
		s, err := parseProfile(p)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
		if err := os.WriteFile(filepath.Join(rc.traceDir, fmt.Sprintf("%s.%d.pprof", r.workload, i)), p, 0o644); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(rc.traceDir, r.workload+".spans.json"))
	if err != nil {
		return err
	}
	if err := errors.Join(tr.spans.WriteChrome(f), f.Close()); err != nil {
		return err
	}

	self, incl := cpuShares(samples)
	var vals []float64
	for _, l := range cpuLayers {
		vals = append(vals, self[l])
	}
	for _, l := range inclusiveLayers {
		vals = append(vals, incl[l])
	}
	for _, s := range spanNames {
		vals = append(vals, tr.spanMedianMS(s))
	}
	reqs := float64(len(traced.iterS) * prep.attempted)
	for _, c := range tr.calls() {
		vals = append(vals, float64(c)/reqs)
	}
	for _, d := range workMetrics {
		v, ok := ref.work[d.name]
		if !ok {
			v = prep.work[d.name]
		}
		vals = append(vals, v)
	}
	vals = append(vals,
		float64(len(plain.iterS)),
		quantile(plain.iterS, 0.25),
		quantile(plain.iterS, 0.75),
		1-median(traced.opsPerS)/median(plain.opsPerS),
	)
	r.add(perLayer, vals...)
	return nil
}

// add appends one value per definition, in order.
func (r *result) add(defs []metricDef, vals ...float64) {
	if len(defs) != len(vals) {
		panic(fmt.Sprintf("bench: %d metric definitions but %d values", len(defs), len(vals)))
	}
	for i, d := range defs {
		r.metrics = append(r.metrics, metric{metricDef: d, value: vals[i]})
	}
}

// print writes one line per metric and the JSON summary line last.
func (r *result) print(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonMetric{}}

	var b bytes.Buffer
	fmt.Fprintf(&b, "%s/digest %s\n", r.workload, r.digest)
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "%s/%s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		summary.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Fprintf(&b, "%s/fail_ratio %s ratio\n", r.workload,
		strconv.FormatFloat(float64(r.failed)/float64(r.attempted), 'g', -1, 64))
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}
