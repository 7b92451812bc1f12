package engine

import (
	"bytes"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/storage"
)

func TestAsyncTimelineOverlap(t *testing.T) {
	cfg, _ := model.ByName("Qwen1.5-4B")
	inst := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLMAsync, Seed: 900})
	tl := inst.Timeline()
	w, _ := tl.Stage(StageWeights)
	tok, _ := tl.Stage(StageTokenizer)
	kv, _ := tl.Stage(StageKVInit)
	cap, _ := tl.Stage(StageCapture)
	// Weights and tokenizer start together; KV init follows tokenizer.
	if w.Start != tok.Start {
		t.Fatalf("weights start %v != tokenizer start %v", w.Start, tok.Start)
	}
	if kv.Start != tok.End {
		t.Fatalf("kv start %v != tokenizer end %v", kv.Start, tok.End)
	}
	// Capture begins after both tracks finish.
	trackEnd := kv.End
	if w.End > trackEnd {
		trackEnd = w.End
	}
	if cap.Start != trackEnd {
		t.Fatalf("capture start %v != max track end %v", cap.Start, trackEnd)
	}
}

func TestAsyncInterferenceStretchesWeights(t *testing.T) {
	cfg, _ := model.ByName("Qwen1.5-4B")
	store := storage.NewStore(storage.DefaultArray())
	sync := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLM, Seed: 901, Store: store})
	async := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLMAsync, Seed: 902, Store: store})
	ws := sync.Timeline().StageDuration(StageWeights)
	wa := async.Timeline().StageDuration(StageWeights)
	ratio := float64(wa) / float64(ws)
	// §7.3: profiling forwarding interferes with async copies
	// (0.39 → 0.47 s in the paper, a ×1.2 stretch).
	if ratio < 1.15 || ratio > 1.25 {
		t.Fatalf("async weights stretch = %.2f, want ≈1.2", ratio)
	}
}

func TestAsyncBubbleMatchesFigure8(t *testing.T) {
	// Qwen1.5-4B has a bubble: stretched weights still finish before
	// tokenizer + KV init.
	cfg, _ := model.ByName("Qwen1.5-4B")
	inst := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLMAsync, Seed: 903})
	tl := inst.Timeline()
	w, _ := tl.Stage(StageWeights)
	kv, _ := tl.Stage(StageKVInit)
	bubble := kv.End - w.End
	if bubble <= 0 {
		t.Fatalf("no async bubble (weights end %v, kv end %v); paper reports 0.26s", w.End, kv.End)
	}
	if bubble > 500*time.Millisecond {
		t.Fatalf("bubble %v implausibly large", bubble)
	}
}

func TestProfilingAllocationsBalanced(t *testing.T) {
	// The profiling forwarding must free everything it allocates: its
	// temporaries are replayed alloc+free by Medusa and must not leak
	// into the ready state. The materialized sequence shows this
	// directly: every Free event in the prefix pairs with an allocation
	// made inside the prefix.
	store := storage.NewStore(storage.DefaultArray())
	art, _, err := RunOffline(OfflineOptions{
		Model: model.TestTiny("balance"), Store: store, Seed: 904, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	prefix := art.AllocSeq[:art.PrefixLen]
	allocatedInPrefix := map[int]bool{}
	frees := 0
	for _, ev := range prefix {
		if ev.Free {
			frees++
			if !allocatedInPrefix[ev.AllocIndex] {
				t.Fatalf("prefix frees allocation %d made elsewhere", ev.AllocIndex)
			}
			delete(allocatedInPrefix, ev.AllocIndex)
			continue
		}
		allocatedInPrefix[ev.AllocIndex] = true
	}
	// The profiling forwarding allocates 6 activation temporaries.
	if frees != 6 {
		t.Fatalf("prefix frees = %d, want the 6 profiling temporaries", frees)
	}
	// Whatever remains live in the prefix must be labeled state the
	// engine knows (weights are unlabeled but allocated before
	// profiling; KV buffers carry labels).
	if _, ok := art.LabelIndex("kv.k"); !ok {
		t.Fatal("kv.k label missing from prefix")
	}
}

func TestFunctionalWeightsLoaded(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 905))
	cfg := inst.Model()
	spec := cfg.Tensors()[1] // layers.0.input_norm
	addr := inst.weights[spec.Name]
	buf, _, ok := inst.Process().Device().FindBuffer(addr)
	if !ok {
		t.Fatal("weight buffer missing")
	}
	got := make([]byte, len(cfg.TensorData(spec)))
	if err := buf.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cfg.TensorData(spec)) {
		t.Fatal("weight contents differ from the deterministic tensor data")
	}
}

func TestGenerateRespectsContextLimit(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 906))
	// MaxSeqLen is 64 for the tiny model; ask for far more output than
	// fits and check generation stops at the limit without error.
	out, err := inst.Generate("tok1", 500)
	if err != nil {
		t.Fatal(err)
	}
	n := len(inst.Tokenizer().Encode(out))
	if n == 0 || n >= 500 {
		t.Fatalf("generated %d tokens, want a context-limited amount", n)
	}
	// KV blocks released after generation.
	if used := inst.kvMgr.UsedBlocks(); used != 0 {
		t.Fatalf("generation leaked %d KV blocks", used)
	}
}

func TestGraphByBatch(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 907))
	g, ok := inst.GraphByBatch(2)
	if !ok || g.NodeCount() == 0 {
		t.Fatal("GraphByBatch(2) missing")
	}
	if _, ok := inst.GraphByBatch(3); ok {
		t.Fatal("GraphByBatch(3) exists for uncaptured size")
	}
}

func TestArtifactSizeEstimate(t *testing.T) {
	// The estimate backs I/O charging when the caller omits the real
	// size; it should land within ~2x for production-scale artifacts.
	store := storage.NewStore(storage.DefaultArray())
	cfg, _ := model.ByName("Qwen1.5-0.5B")
	_, report, err := RunOffline(OfflineOptions{Model: cfg, Store: store, Seed: 908})
	if err != nil {
		t.Fatal(err)
	}
	est := artifactSizeEstimate(report.TotalNodes)
	ratio := float64(est) / float64(report.ArtifactBytes)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("size estimate %d vs actual %d (ratio %.2f)", est, report.ArtifactBytes, ratio)
	}
}

func TestTuningOverrides(t *testing.T) {
	cfg, _ := model.ByName("Qwen1.5-4B")
	store := storage.NewStore(storage.DefaultArray())
	base := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLM, Seed: 909, Store: store})
	tuned := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 910, Store: store,
		Tuning: &Tuning{InstantiateNodeCost: 64 * time.Microsecond},
	})
	if tuned.Timeline().StageDuration(StageCapture) <= base.Timeline().StageDuration(StageCapture) {
		t.Fatal("doubled instantiate cost did not lengthen the capture stage")
	}
}

func TestOfflineSkipValidation(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tricky-skip")
	cfg.TrickySeed = true
	// With validation skipped the false positive survives analysis.
	art, report, err := RunOffline(OfflineOptions{
		Model: cfg, Store: store, Seed: 911, CaptureSizes: tinySizes, SkipValidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Correction.Demoted) != 0 {
		t.Fatal("skip-validation run corrected anyway")
	}
	pointerSeeds := 0
	for _, g := range art.Graphs {
		for _, n := range g.Nodes {
			for pi, p := range n.Params {
				if p.Pointer && pi == 4 && n.KernelName == "medusa_sample_argmax" {
					pointerSeeds++
				}
			}
		}
	}
	if pointerSeeds == 0 {
		t.Fatal("tricky seed not classified as pointer without validation")
	}
}

func TestIndirectWarningsZeroOnCleanModel(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	_, report, err := RunOffline(OfflineOptions{
		Model: model.TestTiny("clean"), Store: store, Seed: 912, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.IndirectPointerWarnings != 0 {
		t.Fatalf("clean model produced %d indirect-pointer warnings", report.IndirectPointerWarnings)
	}
}

func TestInstanceAccessors(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 913))
	if inst.Strategy() != StrategyVLLM {
		t.Fatal("Strategy accessor wrong")
	}
	if inst.MaxBatch() != 8 {
		t.Fatalf("MaxBatch = %d (capture sizes %v)", inst.MaxBatch(), tinySizes)
	}
	want := 0
	for _, b := range tinySizes {
		want += inst.Model().NodesPerGraph(b, tinySizes)
	}
	if inst.GraphNodeTotal() != want {
		t.Fatalf("GraphNodeTotal = %d, want %d", inst.GraphNodeTotal(), want)
	}
}

func TestFirstTokenServeDuration(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyVLLM, 914))
	d, err := inst.FirstTokenServeDuration(40)
	if err != nil {
		t.Fatal(err)
	}
	prefill, _ := inst.PrefillDuration(40)
	decode, _ := inst.DecodeStepDuration(1)
	if d != firstTokenOverhead+prefill+decode {
		t.Fatalf("FirstTokenServeDuration = %v, want overhead+prefill+decode", d)
	}
}

func TestOfflineReportTotal(t *testing.T) {
	r := &OfflineReport{CaptureStageDuration: 2 * time.Second, AnalysisDuration: 3 * time.Second}
	if r.Total() != 5*time.Second {
		t.Fatalf("Total = %v", r.Total())
	}
}

// TestColdStartRecordsEachPhaseOnce backs Timeline.Stage's lookup by
// start order: no cold start records a phase twice — not any
// strategy's, not one degraded by a restore mismatch, not a
// tensor-parallel rank's — so the first match is the only one.
func TestColdStartRecordsEachPhaseOnce(t *testing.T) {
	check := func(what string, tl obs.Timeline) {
		t.Helper()
		seen := map[string]bool{}
		for _, st := range tl {
			if seen[st.Phase] {
				t.Errorf("%s: phase %s recorded twice in %v", what, st.Phase, tl)
			}
			seen[st.Phase] = true
		}
	}
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	_, _, medusaOpts := offlineTiny(t, cfg, store, 30)
	base := mustColdStart(t, tinyOptions(StrategyVLLM, 31))
	ckptBytes, err := TakeCheckpoint(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range AllStrategies() {
		opts := tinyOptions(s, int64(40+i))
		switch s {
		case StrategyMedusa:
			opts = medusaOpts
		case StrategyCheckpoint:
			opts.Store, opts.CheckpointBytes = store, ckptBytes
		}
		opts.IncludeRuntimeInit = true
		check(s.String(), mustColdStart(t, opts).Timeline())
	}

	mismatch := medusaOpts
	mismatch.IncludeRuntimeInit = true
	mismatch.Faults = mustInjector(t, faults.Plan{RestoreMismatch: faults.SiteSpec{Every: 1}})
	inst := mustColdStart(t, mismatch)
	if inst.DegradedReason() != faults.ReasonRestoreMismatch {
		t.Fatalf("DegradedReason = %q, want %q", inst.DegradedReason(), faults.ReasonRestoreMismatch)
	}
	check("restore mismatch", inst.Timeline())

	tp, err := TPColdStart(TPOptions{
		Model: model.TestTiny("tp-tiny"), Degree: 2, Strategy: StrategyMedusa,
		Store: store, Seed: 50, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range tp.Ranks {
		check("TP rank", rank.Timeline())
	}
}
