package engine

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// tinySizes keeps functional tests fast while exercising several
// GEMM buckets.
var tinySizes = []int{1, 2, 4, 8}

func tinyOptions(strategy Strategy, seed int64) Options {
	return Options{
		Model:        model.TestTiny("tiny"),
		Strategy:     strategy,
		Seed:         seed,
		CaptureSizes: tinySizes,
	}
}

func mustColdStart(t testing.TB, opts Options) *Instance {
	t.Helper()
	inst, err := ColdStart(opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestColdStartVLLMFunctional(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 1))
	for _, stage := range []string{StageStructInit, StageWeights, StageTokenizer, StageKVInit, StageCapture} {
		if _, ok := inst.Timeline().Stage(stage); !ok {
			t.Errorf("timeline missing stage %s", stage)
		}
	}
	if len(inst.graphs) != len(tinySizes) {
		t.Fatalf("graphs = %d, want %d", len(inst.graphs), len(tinySizes))
	}
	if inst.KVRecord().NumBlocks == 0 {
		t.Fatal("KV cache not sized")
	}
}

func TestCapturedNodeCountsMatchModel(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 2))
	cfg := inst.Model()
	for _, b := range tinySizes {
		want := cfg.NodesPerGraph(b, tinySizes)
		got := inst.graphs[b].Graph().NodeCount()
		if got != want {
			t.Errorf("batch %d: %d nodes, structure predicts %d", b, got, want)
		}
	}
}

func TestColdStartAllFamilies(t *testing.T) {
	for _, cfg := range []model.Config{
		model.TestTiny("std"), tinyOf("fused", model.FamilyFused), tinyOf("par", model.FamilyParallel),
	} {
		inst, err := ColdStart(Options{Model: cfg, Strategy: StrategyVLLM, Seed: 3, CaptureSizes: tinySizes})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Family, err)
		}
		want := cfg.NodesPerGraph(1, tinySizes)
		if got := inst.graphs[1].Graph().NodeCount(); got != want {
			t.Fatalf("%s: %d nodes, want %d", cfg.Family, got, want)
		}
	}
}

func TestNoGraphStrategySkipsCapture(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyNoGraph, 4))
	if len(inst.graphs) != 0 {
		t.Fatal("NoGraph instance has graphs")
	}
	if _, ok := inst.Timeline().Stage(StageCapture); ok {
		t.Fatal("NoGraph timeline contains capture stage")
	}
	// Serving still works through eager launches.
	if _, err := inst.DecodeStepDuration(2); err != nil {
		t.Fatal(err)
	}
}

func offlineTiny(t testing.TB, cfg model.Config, store *storage.Store, seed int64) (*Instance, *OfflineReport, Options) {
	t.Helper()
	art, report, err := RunOffline(OfflineOptions{
		Model: cfg, Store: store, Seed: seed, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Model: cfg, Strategy: StrategyMedusa, Seed: seed + 100, Store: store,
		CaptureSizes: tinySizes, Artifact: art, ArtifactBytes: report.ArtifactBytes,
	}
	inst, err := ColdStart(opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst, report, opts
}

func TestMedusaRestoreMatchesOriginalOutputs(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	restored, _, _ := offlineTiny(t, cfg, store, 10)
	// Reference: a plain vLLM cold start of the same model.
	ref := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 999, Store: store, CaptureSizes: tinySizes,
	})
	for _, b := range tinySizes {
		want, err := ref.RunValidationForward(b, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.RunValidationForward(b, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: restored forwarding output differs from vanilla vLLM", b)
		}
	}
}

func TestMedusaGenerateMatchesVLLM(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	restored, _, _ := offlineTiny(t, cfg, store, 20)
	vllm := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 888, Store: store, CaptureSizes: tinySizes,
	})
	prompt := "tok3 tok7 tok11"
	a, err := vllm.Generate(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Generate(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("generation diverged:\n vLLM:   %q\n Medusa: %q", a, b)
	}
	if a == "" {
		t.Fatal("empty generation")
	}
	// Generation must be deterministic within an instance too.
	c, err := vllm.Generate(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatal("generation not deterministic")
	}
}

func TestTrickySeedCorrectedByValidation(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tricky")
	cfg.TrickySeed = true
	art, report, err := RunOffline(OfflineOptions{
		Model: cfg, Store: store, Seed: 30, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Correction.Demoted) == 0 {
		t.Fatal("validation did not demote the false-positive seed parameter")
	}
	found := false
	for _, pg := range report.Correction.Demoted {
		if pg.KernelName == kernels.SampleArgmax {
			found = true
		}
	}
	if !found {
		t.Fatalf("demoted groups = %+v, want sample kernel seed", report.Correction.Demoted)
	}
	// The corrected artifact must restore correctly.
	inst, err := ColdStart(Options{
		Model: cfg, Strategy: StrategyMedusa, Seed: 31, Store: store,
		CaptureSizes: tinySizes, Artifact: art,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.graphs) != len(tinySizes) {
		t.Fatal("corrected artifact restored wrong graph count")
	}
}

func TestOfflineReportAndArtifactPersistence(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	art, report, err := RunOffline(OfflineOptions{
		Model: cfg, Store: store, Seed: 40, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalNodes != art.TotalNodes() {
		t.Fatalf("report nodes %d != artifact nodes %d", report.TotalNodes, art.TotalNodes())
	}
	if report.ArtifactBytes == 0 || report.CaptureStageDuration == 0 {
		t.Fatalf("report = %+v", report)
	}
	loaded, size, err := LoadArtifact(store, vclock.New(), cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	if size != report.ArtifactBytes || loaded.TotalNodes() != art.TotalNodes() {
		t.Fatal("persisted artifact differs")
	}
}

func TestStrategyOrderingOnCalibratedModel(t *testing.T) {
	// Cost-only Qwen1.5-4B: the Figure 8 anchor model.
	cfg, err := model.ByName("Qwen1.5-4B")
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	art, report, err := RunOffline(OfflineOptions{Model: cfg, Store: store, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	durations := map[Strategy]time.Duration{}
	for i, s := range Strategies() {
		opts := Options{Model: cfg, Strategy: s, Seed: int64(60 + i), Store: store}
		if s == StrategyMedusa {
			opts.Artifact = art
			opts.ArtifactBytes = report.ArtifactBytes
		}
		inst := mustColdStart(t, opts)
		durations[s] = inst.LoadingDuration()
	}
	if !(durations[StrategyMedusa] < durations[StrategyNoGraph] &&
		durations[StrategyNoGraph] < durations[StrategyVLLMAsync] &&
		durations[StrategyVLLMAsync] < durations[StrategyVLLM]) {
		t.Fatalf("strategy ordering violated: %v", durations)
	}
	// Figure 8 anchors (±20%).
	within := func(got, want time.Duration, what string) {
		t.Helper()
		lo := time.Duration(float64(want) * 0.8)
		hi := time.Duration(float64(want) * 1.2)
		if got < lo || got > hi {
			t.Errorf("%s = %v, want %v ±20%%", what, got, want)
		}
	}
	within(durations[StrategyVLLM], 2850*time.Millisecond, "vLLM loading")
	reduction := 1 - float64(durations[StrategyMedusa])/float64(durations[StrategyVLLM])
	if reduction < 0.30 || reduction > 0.55 {
		t.Errorf("Medusa loading reduction = %.1f%%, paper reports 41.4%% for Qwen1.5-4B", reduction*100)
	}
}

func TestFigure8StageAnchors(t *testing.T) {
	cfg, _ := model.ByName("Qwen1.5-4B")
	inst := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLM, Seed: 70})
	tl := inst.Timeline()
	anchors := map[string]time.Duration{
		StageStructInit: 850 * time.Millisecond,
		StageWeights:    390 * time.Millisecond,
		StageTokenizer:  210 * time.Millisecond,
		StageKVInit:     500 * time.Millisecond,
		StageCapture:    900 * time.Millisecond,
	}
	for stage, want := range anchors {
		got := tl.StageDuration(stage)
		lo := time.Duration(float64(want) * 0.75)
		hi := time.Duration(float64(want) * 1.25)
		if got < lo || got > hi {
			t.Errorf("%s = %v, Figure 8a anchor %v (±25%%)", stage, got, want)
		}
	}
}

func TestMedusaKVRestoreIsFast(t *testing.T) {
	cfg, _ := model.ByName("Qwen1.5-4B")
	store := storage.NewStore(storage.DefaultArray())
	art, report, err := RunOffline(OfflineOptions{Model: cfg, Store: store, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyMedusa, Seed: 81, Store: store,
		Artifact: art, ArtifactBytes: report.ArtifactBytes,
	})
	kv := inst.Timeline().StageDuration(StageKVInit)
	if kv > 60*time.Millisecond {
		t.Fatalf("Medusa KV restore = %v, want ≈20ms (Figure 8c)", kv)
	}
	// And the KV sizing must match what profiling would have found.
	vllm := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLM, Seed: 82, Store: store})
	if inst.KVRecord().NumBlocks != vllm.KVRecord().NumBlocks {
		t.Fatalf("restored KV blocks %d != profiled %d", inst.KVRecord().NumBlocks, vllm.KVRecord().NumBlocks)
	}
}

func TestCUDAGraphAcceleration(t *testing.T) {
	// Figure 3's premise on the smallest model: graphs accelerate
	// decode by up to ≈2.4×.
	cfg, _ := model.ByName("Qwen1.5-0.5B")
	store := storage.NewStore(storage.DefaultArray())
	withG := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLM, Seed: 90, Store: store})
	without := mustColdStart(t, Options{Model: cfg, Strategy: StrategyNoGraph, Seed: 91, Store: store})
	dG, err := withG.DecodeStepDuration(1)
	if err != nil {
		t.Fatal(err)
	}
	dN, err := without.DecodeStepDuration(1)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(dN) / float64(dG)
	if speedup < 1.5 || speedup > 2.8 {
		t.Fatalf("graph speedup = %.2fx (graph %v vs eager %v), want ≈2.4x on the smallest model", speedup, dG, dN)
	}
}

func TestRuntimeInitPhase(t *testing.T) {
	cfg := model.TestTiny("tiny")
	with := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 95, CaptureSizes: tinySizes, IncludeRuntimeInit: true,
	})
	if with.Timeline().StageDuration(StageRuntimeInit) != runtimeInitDuration {
		t.Fatal("runtime init stage missing or wrong")
	}
	if with.ColdStartDuration()-with.LoadingDuration() != runtimeInitDuration {
		t.Fatal("LoadingDuration does not exclude runtime init")
	}
}

// TestColdStartSpans: a traced cold start emits one cold_start root on
// the instance's track whose children are its timeline stage for stage;
// every internal-detail span on the "<track>/internal" lane is ended.
func TestColdStartSpans(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	_, _, medusaOpts := offlineTiny(t, model.TestTiny("tiny"), store, 60)
	ckptBytes, err := TakeCheckpoint(mustColdStart(t, tinyOptions(StrategyVLLM, 61)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range AllStrategies() {
		opts := tinyOptions(s, int64(62+i))
		switch s {
		case StrategyMedusa:
			opts = medusaOpts
		case StrategyCheckpoint:
			opts.Store, opts.CheckpointBytes = store, ckptBytes
		}
		tr := obs.NewTracer()
		opts.Tracer = tr
		inst := mustColdStart(t, opts)

		spans := tr.Spans()
		sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
		var roots, children []obs.SpanData
		internal := 0
		for _, sp := range spans {
			switch {
			case sp.Track == inst.track+"/internal":
				internal++
				if sp.End <= sp.Start {
					t.Errorf("%s: internal span %q not ended (start %v, end %v)", s, sp.Name, sp.Start, sp.End)
				}
			case sp.Parent == -1:
				roots = append(roots, sp)
			default:
				children = append(children, sp)
			}
		}
		if len(roots) != 1 || roots[0].Name != "cold_start" || roots[0].Track != inst.track ||
			roots[0].Start != 0 || roots[0].End != inst.ColdStartDuration() {
			t.Fatalf("%s: roots %+v, want one cold_start on %s over [0, %v]",
				s, roots, inst.track, inst.ColdStartDuration())
		}
		tl := inst.Timeline()
		if len(children) != len(tl) {
			t.Fatalf("%s: %d child spans for %d timeline stages", s, len(children), len(tl))
		}
		for j, st := range tl {
			c := children[j]
			if c.Parent != roots[0].ID || c.Name != st.Phase || c.Phase != st.Phase ||
				c.Start != st.Start || c.End != st.End {
				t.Errorf("%s: child %d = %+v, want %s over [%v, %v]", s, j, c, st.Phase, st.Start, st.End)
			}
		}
		if internal == 0 {
			t.Errorf("%s: no internal-detail spans", s)
		}
	}
}

func TestMedusaRequiresArtifact(t *testing.T) {
	if _, err := ColdStart(tinyOptions(StrategyMedusa, 97)); err == nil {
		t.Fatal("Medusa cold start without artifact succeeded")
	}
}

// TestCaptureSizesRejectDuplicates: a batch size listed twice would be
// captured twice and shipped as two graphs, of which a cold start keeps
// whichever it restores last. Both phases must refuse it.
func TestCaptureSizesRejectDuplicates(t *testing.T) {
	opts := tinyOptions(StrategyVLLM, 98)
	opts.CaptureSizes = []int{2, 2, 1}
	if _, err := ColdStart(opts); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("ColdStart with sizes %v: err = %v, want a duplicate-size error", opts.CaptureSizes, err)
	}
	if _, _, err := RunOffline(OfflineOptions{Model: opts.Model, Seed: 98, CaptureSizes: opts.CaptureSizes}); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("RunOffline with sizes %v: err = %v, want a duplicate-size error", opts.CaptureSizes, err)
	}
}

// TestCaptureSizesRejectNonPositive: a batch of zero or fewer rows has
// no decode forward to capture.
func TestCaptureSizesRejectNonPositive(t *testing.T) {
	for _, sizes := range [][]int{{0, 1}, {1, -4}} {
		opts := tinyOptions(StrategyVLLM, 99)
		opts.CaptureSizes = sizes
		if _, err := ColdStart(opts); err == nil || !strings.Contains(err.Error(), "not positive") {
			t.Fatalf("ColdStart with sizes %v: err = %v, want a non-positive-size error", sizes, err)
		}
		if _, _, err := RunOffline(OfflineOptions{Model: opts.Model, Seed: 99, CaptureSizes: sizes}); err == nil ||
			!strings.Contains(err.Error(), "not positive") {
			t.Fatalf("RunOffline with sizes %v: err = %v, want a non-positive-size error", sizes, err)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("ParseStrategy accepted bogus")
	}
}

func TestGraphBatchSelection(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 98))
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 100: 8}
	for n, want := range cases {
		if got := inst.GraphBatch(n); got != want {
			t.Errorf("GraphBatch(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPrefillDurationMonotone(t *testing.T) {
	cfg, _ := model.ByName("Llama2-7B")
	inst := mustColdStart(t, Options{Model: cfg, Strategy: StrategyNoGraph, Seed: 99})
	short, err := inst.PrefillDuration(64)
	if err != nil {
		t.Fatal(err)
	}
	long, err := inst.PrefillDuration(1024)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Fatalf("prefill durations not monotone: %v vs %v", short, long)
	}
	// Memoized second call must be identical.
	again, _ := inst.PrefillDuration(64)
	if again != short {
		t.Fatal("prefill memoization broken")
	}
}
