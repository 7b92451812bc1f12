package engine

import (
	"slices"
	"testing"

	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
	"github.com/medusa-repro/medusa/internal/vclock"
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

// BenchmarkCodecZoo runs the artifact codec on zoo artifacts, whose
// graphs name about twenty kernels and vary their param counts — the
// name interning and delta-index load a one-kernel fixture hides. The
// template is the standard family's, built from Llama2-13B as the
// offline-zoo benchmark builds it from the whole zoo; the seeds are
// that benchmark's at seed 1.
func BenchmarkCodecZoo(b *testing.B) {
	names := []string{"Llama2-13B", "Llama2-7B", "Yi-9B"}
	store := storage.NewStore(storage.DefaultArray())
	var cfgs []model.Config
	var arts []*medusa.Artifact
	for i, c := range model.Zoo() {
		if !slices.Contains(names, c.Name) {
			continue
		}
		art, _, err := RunOffline(OfflineOptions{Model: c, Store: store, Seed: 100 + int64(i), Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		cfgs, arts = append(cfgs, c), append(arts, art)
	}
	tmpls, err := BuildFleetTemplates(store, vclock.New(), cfgs, arts)
	if err != nil {
		b.Fatal(err)
	}
	resolve := StoreResolver(store, vclock.New())
	for i, c := range cfgs {
		if c.Name == names[0] {
			continue
		}
		art, tmpl := arts[i], tmpls[c.Family]
		v2, err := art.Encode()
		if err != nil {
			b.Fatal(err)
		}
		v3, err := art.EncodeDelta(tmpl)
		if err != nil {
			b.Fatal(err)
		}
		ops := []struct {
			name  string
			bytes int
			run   func() error
		}{
			{"encode", len(v2), func() error { _, err := art.Encode(); return err }},
			{"decode", len(v2), func() error { _, err := medusa.Decode(v2); return err }},
			{"encode_delta", len(v2), func() error { _, err := art.EncodeDelta(tmpl); return err }},
			{"decode_resolved", len(v2), func() error { _, err := medusa.DecodeResolved(v3, resolve); return err }},
		}
		for _, op := range ops {
			b.Run(c.Name+"/"+op.name, func(b *testing.B) {
				b.SetBytes(int64(op.bytes))
				b.ReportAllocs()
				for range b.N {
					if err := op.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
