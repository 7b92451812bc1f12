package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
)

// toy is the size the tests run every workload at: a hundredth of each
// virtual duration, two models per fleet and one zoo model.
var toy = params{seed: 1, scale: 0.01}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and that no op failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program runs %q", i, w.Name, workloads[i].name)
		}
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(w, runConfig{p: toy, seconds: 0.001, setupReps: 1, minIters: 1, trace: traced, traceDir: dir})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := map[string][]string{}
			var last string
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) >= 2 {
					lines[f[0]] = f[1:]
				}
			}
			for _, m := range want {
				f, ok := lines[w.name+"/"+m.Name]
				if !ok || len(f) != 2 || f[1] != m.Unit {
					t.Errorf("%s (traced %v): metric %s printed as %q, want a value and unit %q", w.name, traced, m.Name, f, m.Unit)
				}
			}
			if f := lines[w.name+"/fail_ratio"]; len(f) != 2 || f[0] != "0" {
				t.Errorf("%s (traced %v): fail_ratio line %q, want 0", w.name, traced, f)
			}
			var summary struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(last), &summary); err != nil {
				t.Fatalf("%s: last line %q is not the JSON summary: %v", w.name, last, err)
			}
			if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 || len(summary.Metrics) != len(want) {
				t.Errorf("%s (traced %v): summary %+v, want correct with %d metrics", w.name, traced, summary, len(want))
			}
		}
	}
}

// TestWrappersAreNeutral checks that the traced run's call-counting
// wrappers do not change what the simulator computes: wrapped and
// unwrapped runs render byte-identical Results.
func TestWrappersAreNeutral(t *testing.T) {
	for _, w := range workloads[:2] {
		prep, err := w.setup(toy, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := prep.iterate(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		wrapped, err := prep.iterate(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != wrapped.digest {
			t.Errorf("%s: wrapped run renders differently from the plain run", w.name)
		}
		if tr.desired == 0 || tr.arrivals != int64(prep.attempted) {
			t.Errorf("%s: wrappers saw %d Desired calls and %d of %d arrivals; they are not on the path",
				w.name, tr.desired, tr.arrivals, prep.attempted)
		}
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

var sink int

// TestParseProfile decodes a CPU profile recorded around a busy loop
// and finds the loop's function on most sampled stacks.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := now(); now().Sub(start).Seconds() < 0.5; {
		sink += spin(1 << 20)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.value
		for _, f := range s.funcs {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.value
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin is on %d of %d sampled stacks, want most", inSpin, total)
	}
	self, _ := cpuShares(samples)
	if self["other"] < 0.5 {
		t.Errorf("benchmark-only stacks charged %.2f to other, want most", self["other"])
	}
}

func TestSampleLayer(t *testing.T) {
	const repo = "github.com/medusa-repro/medusa/internal/"
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", repo + "eventq.(*Queue[...]).Push", repo + "cluster.(*simulation).run"}, "eventq"},
		{[]string{"sort.Slice", repo + "gpu.(*Device).Cost", repo + "cuda.(*Stream).Launch"}, "cuda"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", repo + "medusa.Decode"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"github.com/medusa-repro/medusa/bench.spin", "runtime.main"}, "other"},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
	self, incl := cpuShares([]stackSample{
		{value: 3, funcs: []string{repo + "kvcache.(*Manager).Reserve", repo + "sched.(*Scheduler[...]).Plan"}},
		{value: 1, funcs: []string{repo + "engine.ColdStart"}},
	})
	sum := 0.0
	for _, l := range cpuLayers {
		sum += self[l]
	}
	if sum != 1 || self["kvcache"] != 0.75 || incl["sched"] != 0.75 || incl["engine"] != 0.25 {
		t.Errorf("shares self %v incl %v, want kvcache 0.75 of a total 1, sched incl 0.75, engine incl 0.25", self, incl)
	}
}
