package engine

import (
	"testing"

	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

// tinyOf is model.TestTiny with the layer family f.
func tinyOf(name string, f model.Family) model.Config {
	c := model.TestTiny(name)
	c.Family = f
	return c
}

// TestGenerationMatrix runs end-to-end generation on every functional
// model family under every strategy that serves with CUDA graphs, and
// checks all of them produce the family's reference output. This is
// the broadest correctness net in the repository: one divergence in
// capture, materialization, restoration, or replay shows up here.
func TestGenerationMatrix(t *testing.T) {
	families := []model.Config{
		model.TestTiny("matrix-std"),
		tinyOf("matrix-fused", model.FamilyFused),
		tinyOf("matrix-par", model.FamilyParallel),
	}
	const prompt = "tok2 tok17 tok9"
	const maxNew = 6
	for _, cfg := range families {
		cfg := cfg
		t.Run(string(cfg.Family), func(t *testing.T) {
			store := storage.NewStore(storage.DefaultArray())
			art, report, err := RunOffline(OfflineOptions{
				Model: cfg, Store: store, Seed: 1000, CaptureSizes: tinySizes,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := mustColdStart(t, Options{
				Model: cfg, Strategy: StrategyVLLM, Seed: 1001, Store: store, CaptureSizes: tinySizes,
			})
			want, err := ref.Generate(prompt, maxNew)
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				t.Fatal("empty reference generation")
			}

			type variant struct {
				name string
				opts Options
			}
			variants := []variant{
				{"nograph", Options{Model: cfg, Strategy: StrategyNoGraph, Seed: 1002, Store: store, CaptureSizes: tinySizes}},
				{"deferred", Options{Model: cfg, Strategy: StrategyDeferred, Seed: 1003, Store: store, CaptureSizes: tinySizes}},
				{"async", Options{Model: cfg, Strategy: StrategyVLLMAsync, Seed: 1004, Store: store, CaptureSizes: tinySizes}},
				{"medusa/first-layer", Options{Model: cfg, Strategy: StrategyMedusa, Seed: 1005, Store: store,
					CaptureSizes: tinySizes, Artifact: art, ArtifactBytes: report.ArtifactBytes}},
				{"medusa/handwritten", Options{Model: cfg, Strategy: StrategyMedusa, Seed: 1006, Store: store,
					CaptureSizes: tinySizes, Artifact: art, ArtifactBytes: report.ArtifactBytes,
					TriggerMode: TriggerHandwritten}},
			}
			for _, v := range variants {
				inst, err := ColdStart(v.opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				got, err := inst.Generate(prompt, maxNew)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if got != want {
					t.Errorf("%s: generation diverged\n want %q\n got  %q", v.name, want, got)
				}
			}
		})
	}
}
