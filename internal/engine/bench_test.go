package engine

import (
	"testing"

	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

// Wall-clock benchmarks of the simulator itself: how fast a full cold
// start (tens of thousands of simulated kernel launches) executes.

func BenchmarkColdStartVLLM(b *testing.B) {
	cfg, err := model.ByName("Qwen1.5-4B")
	if err != nil {
		b.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColdStart(Options{
			Model: cfg, Strategy: StrategyVLLM, Seed: int64(i + 1), Store: store,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdStartMedusa(b *testing.B) {
	cfg, err := model.ByName("Qwen1.5-4B")
	if err != nil {
		b.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	art, report, err := RunOffline(OfflineOptions{Model: cfg, Store: store, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColdStart(Options{
			Model: cfg, Strategy: StrategyMedusa, Seed: int64(i + 100), Store: store,
			Artifact: art, ArtifactBytes: report.ArtifactBytes,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartMedusaFirstDecode is BenchmarkColdStartMedusa plus
// the first decode step, which builds the batch-1 graph the restore
// left unbuilt: the cold-start work Medusa defers, measured where it
// lands.
func BenchmarkColdStartMedusaFirstDecode(b *testing.B) {
	cfg, err := model.ByName("Qwen1.5-4B")
	if err != nil {
		b.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	art, report, err := RunOffline(OfflineOptions{Model: cfg, Store: store, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := ColdStart(Options{
			Model: cfg, Strategy: StrategyMedusa, Seed: int64(i + 100), Store: store,
			Artifact: art, ArtifactBytes: report.ArtifactBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inst.DecodeStepDuration(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflinePhase(b *testing.B) {
	cfg, err := model.ByName("Qwen1.5-0.5B")
	if err != nil {
		b.Fatal(err)
	}
	store := storage.NewStore(storage.DefaultArray())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunOffline(OfflineOptions{Model: cfg, Store: store, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalGenerate(b *testing.B) {
	store := storage.NewStore(storage.DefaultArray())
	inst, err := ColdStart(Options{
		Model: model.TestTiny("bench"), Strategy: StrategyVLLM, Seed: 1,
		Store: store, CaptureSizes: []int{1, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Generate("tok1 tok2 tok3", 8); err != nil {
			b.Fatal(err)
		}
	}
}
