package engine

import (
	"fmt"
	"testing"

	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/storage"
)

func mustInjector(t *testing.T, plan faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestColdStartDegradesOnCorruptArtifact(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	_, _, opts := offlineTiny(t, cfg, store, 50)

	opts.Faults = mustInjector(t, faults.Plan{ArtifactCorrupt: faults.SiteSpec{Every: 1}})
	inst, err := ColdStart(opts)
	if err != nil {
		t.Fatalf("injected corruption must degrade, not abort: %v", err)
	}
	if got := inst.DegradedReason(); got != faults.ReasonCorruptArtifact {
		t.Fatalf("DegradedReason = %q, want %q", got, faults.ReasonCorruptArtifact)
	}
	wasted := inst.Timeline().StageDuration(StageRestoreFailed)
	if wasted <= 0 {
		t.Fatal("degraded timeline must carry the failed attempt as restore_failed")
	}
	// The fallback ran the vanilla stages: capture happened eagerly and
	// the instance serves decodes through graphs.
	if _, ok := inst.Timeline().Stage(StageCapture); !ok {
		t.Fatal("vanilla fallback timeline missing capture stage")
	}
	if len(inst.graphs) == 0 {
		t.Fatal("fallback instance has no graphs")
	}
	if _, err := inst.DecodeStepDuration(1); err != nil {
		t.Fatal(err)
	}

	// Conservative accounting: degraded total == wasted attempt + a
	// clean vanilla cold start of the same configuration.
	ref, err := ColdStart(Options{
		Model: cfg, Strategy: StrategyVLLM, Seed: opts.Seed, Store: store, CaptureSizes: tinySizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inst.ColdStartDuration(), wasted+ref.ColdStartDuration(); got != want {
		t.Fatalf("degraded total %v != wasted %v + vanilla %v", got, wasted, ref.ColdStartDuration())
	}
}

func TestColdStartDegradesOnRestoreMismatch(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	_, _, opts := offlineTiny(t, cfg, store, 60)

	opts.Faults = mustInjector(t, faults.Plan{RestoreMismatch: faults.SiteSpec{Every: 1}})
	inst, err := ColdStart(opts)
	if err != nil {
		t.Fatalf("injected mismatch must degrade, not abort: %v", err)
	}
	if got := inst.DegradedReason(); got != faults.ReasonRestoreMismatch {
		t.Fatalf("DegradedReason = %q, want %q", got, faults.ReasonRestoreMismatch)
	}
	// A mismatch is detected after the whole restore ran, so it wastes
	// more time than corruption caught at the read+decode checksum.
	corruptOpts := opts
	corruptOpts.Faults = mustInjector(t, faults.Plan{ArtifactCorrupt: faults.SiteSpec{Every: 1}})
	corruptInst, err := ColdStart(corruptOpts)
	if err != nil {
		t.Fatal(err)
	}
	mw := inst.Timeline().StageDuration(StageRestoreFailed)
	cw := corruptInst.Timeline().StageDuration(StageRestoreFailed)
	if mw <= cw {
		t.Fatalf("mismatch waste %v should exceed corruption waste %v", mw, cw)
	}
}

func TestColdStartDegradationDeterministic(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	_, _, opts := offlineTiny(t, cfg, store, 70)

	run := func() string {
		o := opts
		o.Faults = mustInjector(t, faults.Plan{Seed: 4, RestoreMismatch: faults.SiteSpec{Every: 1}})
		inst, err := ColdStart(o)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(inst.Timeline()) + "|" + inst.DegradedReason()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("degraded timelines diverge:\n%s\n%s", a, b)
	}
}

func TestColdStartCleanPlanUnchanged(t *testing.T) {
	store := storage.NewStore(storage.DefaultArray())
	cfg := model.TestTiny("tiny")
	_, _, opts := offlineTiny(t, cfg, store, 80)

	clean, err := ColdStart(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A zero plan yields a nil injector; Options.Faults stays nil and
	// the launch is bit-identical to a fault-free build.
	opts.Faults = mustInjector(t, faults.Plan{})
	if opts.Faults != nil {
		t.Fatal("zero plan must produce a nil injector")
	}
	again, err := ColdStart(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(clean.Timeline()) != fmt.Sprint(again.Timeline()) {
		t.Fatal("empty plan changed the cold-start timeline")
	}
	if again.DegradedReason() != "" {
		t.Fatal("clean launch reports a degraded reason")
	}
}
