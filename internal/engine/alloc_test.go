package engine

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
)

// TestCaptureAllocCeiling holds the capture stage of one zoo model —
// warm-up and capture of all 35 graphs, with the offline recorder
// attached — under the checked-in ceiling of allocations per captured
// node in testdata/max_allocs_capture_per_node: launches encode their
// arguments once, into per-capture slabs, through the instance's
// argument buffer.
func TestCaptureAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg, err := model.ByName("Qwen1.5-0.5B")
	if err != nil {
		t.Fatal(err)
	}
	inst := mustColdStart(t, Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: 1, Recorder: medusa.NewRecorder(),
	})
	nodes := inst.GraphNodeTotal()
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		// A fresh recorder per pass, as each offline run has its own.
		rec := medusa.NewRecorder()
		inst.opts.Recorder = rec
		inst.proc.SetHooks(rec.Hooks())
		if err := inst.stageCapture(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	perNode := allocs / float64(nodes)
	limit := readCeiling(t, "max_allocs_capture_per_node")
	t.Logf("capture stage: %.0f allocs over %d nodes, %.3f per node (ceiling %g)", allocs, nodes, perNode, limit)
	if perNode > limit {
		t.Errorf("%.3f allocs per captured node exceeds checked-in ceiling %g (testdata/max_allocs_capture_per_node); "+
			"if the regression is intentional, update the ceiling deliberately", perNode, limit)
	}
}

// TestMedusaColdStartBytesCeiling holds one zoo model's Medusa cold
// start, which launches no graph, under the checked-in ceiling of heap
// bytes in testdata/max_bytes_coldstart_medusa: the restore checks and
// charges every graph but builds none.
func TestMedusaColdStartBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg, err := model.ByName("Qwen1.5-0.5B")
	if err != nil {
		t.Fatal(err)
	}
	art, report, err := RunOffline(OfflineOptions{Model: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	coldStart := func() {
		if _, err := ColdStart(Options{
			Model: cfg, Strategy: StrategyMedusa, Seed: 5,
			Artifact: art, ArtifactBytes: report.ArtifactBytes,
		}); err != nil {
			runErr = err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	coldStart()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		coldStart()
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		t.Fatal(runErr)
	}
	perColdStart := float64(after.TotalAlloc-before.TotalAlloc) / runs
	limit := readCeiling(t, "max_bytes_coldstart_medusa")
	t.Logf("Medusa cold start of %s: %.0f bytes (ceiling %g)", cfg.Name, perColdStart, limit)
	if perColdStart > limit {
		t.Errorf("%.0f bytes per Medusa cold start exceeds checked-in ceiling %g (testdata/max_bytes_coldstart_medusa); "+
			"if the regression is intentional, update the ceiling deliberately", perColdStart, limit)
	}
}

// readCeiling parses a checked-in ceiling from testdata.
func readCeiling(t *testing.T, name string) float64 {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("testdata/%s: %v", name, err)
	}
	return v
}
