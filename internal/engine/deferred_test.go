package engine

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

func TestDeferredStrategySkipsColdStartCapture(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyDeferred, 800))
	if len(inst.graphs) != 0 {
		t.Fatal("deferred instance captured at cold start")
	}
	if _, ok := inst.Timeline().Stage(StageCapture); ok {
		t.Fatal("deferred timeline contains a capture stage")
	}
}

func TestDeferredCaptureOnFirstUse(t *testing.T) {
	inst := mustColdStart(t, tinyOptions(StrategyDeferred, 801))
	// First use of batch 2 pays the capture…
	d1, err := inst.EnsureGraphCaptured(2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == 0 {
		t.Fatal("first EnsureGraphCaptured charged nothing")
	}
	if len(inst.graphs) != 1 {
		t.Fatalf("graphs = %d after first capture", len(inst.graphs))
	}
	// …and subsequent uses are free.
	d2, err := inst.EnsureGraphCaptured(2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 0 {
		t.Fatalf("second EnsureGraphCaptured charged %v", d2)
	}
	// Decode now runs through the captured graph, matching the vLLM
	// instance's graph decode exactly (same model, same cost model).
	vllm := mustColdStart(t, tinyOptions(StrategyVLLM, 802))
	dg, err := inst.DecodeStepDuration(2)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := vllm.DecodeStepDuration(2)
	if err != nil {
		t.Fatal(err)
	}
	if dg != dv {
		t.Fatalf("deferred graph decode %v != vLLM graph decode %v", dg, dv)
	}
}

func TestDeferredFunctionalGeneration(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	deferred := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyDeferred, Seed: 803, Store: store, CaptureSizes: tinySizes,
	})
	if _, err := deferred.EnsureGraphCaptured(1); err != nil {
		t.Fatal(err)
	}
	vllm := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 804, Store: store, CaptureSizes: tinySizes,
	})
	prompt := "tok9 tok4"
	a, err := deferred.Generate(prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vllm.Generate(prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("deferred generation %q != vLLM %q", a, b)
	}
}

func TestDeferredColdStartBetweenNoGraphAndVLLM(t *testing.T) {
	cfg, _ := model.ByName("Qwen1.5-4B")
	store := storage.NewStore(storage.DefaultArray())
	vllm := mustColdStart(t, Options{Model: cfg, Strategy: StrategyVLLM, Seed: 805, Store: store})
	nograph := mustColdStart(t, Options{Model: cfg, Strategy: StrategyNoGraph, Seed: 806, Store: store})
	deferred := mustColdStart(t, Options{Model: cfg, Strategy: StrategyDeferred, Seed: 807, Store: store})
	if deferred.LoadingDuration() >= vllm.LoadingDuration() {
		t.Fatal("deferred not faster than vLLM at cold start")
	}
	diff := deferred.LoadingDuration() - nograph.LoadingDuration()
	if diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("deferred cold start %v should equal w/o-graph %v", deferred.LoadingDuration(), nograph.LoadingDuration())
	}
}

func TestHandwrittenTriggerRestores(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	art, report, err := RunOffline(OfflineOptions{
		Model: cfg, Store: store, Seed: 820, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := ColdStart(Options{
		Model: cfg, Strategy: StrategyMedusa, Seed: 821, Store: store,
		CaptureSizes: tinySizes, Artifact: art, ArtifactBytes: report.ArtifactBytes,
		TriggerMode: TriggerHandwritten,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 822, Store: store, CaptureSizes: tinySizes,
	})
	for _, b := range tinySizes {
		want, err := ref.RunValidationForward(b, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hw.RunValidationForward(b, 5)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("batch %d: handwritten-trigger restore diverges", b)
		}
	}
	// Handwritten triggering issues far fewer launches than first-layer
	// capture; the restore stage should be no slower.
	fl, err := ColdStart(Options{
		Model: cfg, Strategy: StrategyMedusa, Seed: 823, Store: store,
		CaptureSizes: tinySizes, Artifact: art, ArtifactBytes: report.ArtifactBytes,
		TriggerMode: TriggerFirstLayer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw.Timeline().StageDuration(StageCapture) > fl.Timeline().StageDuration(StageCapture) {
		t.Fatalf("handwritten restore (%v) slower than first-layer (%v)",
			hw.Timeline().StageDuration(StageCapture), fl.Timeline().StageDuration(StageCapture))
	}
}

func TestTriggerModeString(t *testing.T) {
	if TriggerFirstLayer.String() != "first-layer" || TriggerHandwritten.String() != "handwritten" {
		t.Fatal("TriggerMode strings wrong")
	}
}
