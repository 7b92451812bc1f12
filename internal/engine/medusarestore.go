package engine

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/obs"
)

// stageGraphRestore is Medusa's replacement for the capture stage: load
// the artifact, replay the capture-stage allocation events, restore
// permanent buffer contents, run first-layer triggering-kernels per
// batch size, resolve kernel addresses, and instantiate every graph
// (each is built on its first launch).
func (inst *Instance) stageGraphRestore() error {
	art := inst.opts.Artifact
	clock := inst.proc.Clock()
	done := inst.stageSpan("graph_restore")

	// Artifact I/O and decode.
	size := inst.opts.ArtifactBytes
	if size == 0 {
		size = artifactSizeEstimate(art.TotalNodes())
	}
	ioDone := inst.stageSpan("artifact_read_decode")
	if !inst.opts.ArtifactPreloaded {
		inst.opts.Store.ChargeRead(clock, size, 1)
	}
	clock.Advance(time.Duration(art.TotalNodes()) * artifactDecodePerNode)
	ioDone(obs.Attr{Key: "bytes", Value: fmt.Sprint(size)},
		obs.Attr{Key: "nodes", Value: fmt.Sprint(art.TotalNodes())})

	// Injected corruption surfaces here, where real damage would: the
	// checksum verification that follows the read+decode.
	if inj := inst.opts.Faults; inj != nil && inj.Inject(faults.SiteArtifactCorrupt, inst.opts.Model.Name) {
		return &faults.ArtifactCorruptError{
			Key:     inst.opts.Model.Name,
			Section: "injected",
			Detail:  "injected corruption (checksum verification failed)",
		}
	}

	if err := inst.restorer.ReplayCaptureStage(); err != nil {
		return err
	}
	inst.restoreWorkspaces()

	trigger := inst.firstLayerTrigger
	if inst.opts.TriggerMode == TriggerHandwritten {
		trigger = inst.handwrittenTrigger
	}
	trigDone := inst.stageSpan("trigger_and_instantiate")
	graphs, err := inst.restorer.RestoreGraphs(trigger)
	if err != nil {
		return err
	}
	trigDone(obs.Attr{Key: "trigger", Value: inst.opts.TriggerMode.String()},
		obs.Attr{Key: "graphs", Value: fmt.Sprint(len(graphs))})
	inst.graphs = graphs

	// Injected validation mismatch: the restore completed but cannot be
	// trusted — §4's trigger for discarding it and cold-starting vanilla.
	if inj := inst.opts.Faults; inj != nil && inj.Inject(faults.SiteRestoreMismatch, inst.opts.Model.Name) {
		return &faults.RestoreMismatchError{Key: inst.opts.Model.Name, Label: "allocation replay"}
	}

	done()
	return nil
}

// handwrittenTrigger is §5.1's approach: a curated list of kernels —
// "usually matrix multiplication" — launched once per GEMM bucket to
// force the CUDA driver to load the module holding that bucket's
// hidden variants. Cheaper than first-layer capture, but the curation
// is manual: the engine must know exactly which kernel selection each
// batch size induces.
func (inst *Instance) handwrittenTrigger(batch int) error {
	bucket := kernels.GemmBucket(batch)
	name := kernels.GemmKernelName(bucket)
	if _, loaded := inst.proc.KernelByName(name); loaded {
		return nil
	}
	ws, ok := inst.ws[bucket]
	if !ok {
		return fmt.Errorf("engine: handwritten trigger for bucket %d without restored workspace", bucket)
	}
	// A 1×1×1 matrix multiplication: just enough to make the driver
	// load the module.
	scratch, err := inst.proc.Malloc(16)
	if err != nil {
		return err
	}
	err = inst.launch(name,
		cuda.PtrValue(scratch), cuda.PtrValue(scratch+4), cuda.PtrValue(scratch+8),
		cuda.PtrValue(ws.a), cuda.PtrValue(ws.b),
		cuda.U32Value(1), cuda.U32Value(1), cuda.U32Value(1))
	if err != nil {
		return fmt.Errorf("engine: handwritten trigger %s: %w", name, err)
	}
	return inst.proc.Free(scratch)
}

// firstLayerTrigger is the §5.2 triggering-kernel step for one batch
// size: warm up and capture just the first layer, loading every module
// the batch's full graph needs, then discard the throwaway graph.
func (inst *Instance) firstLayerTrigger(batch int) error {
	if err := inst.primeDecodeInputs(batch, 0); err != nil {
		return err
	}
	// Warm-up (eager) — this is what actually loads the modules.
	if err := inst.launchFirstLayerForward(batch); err != nil {
		return fmt.Errorf("first-layer warm-up: %w", err)
	}
	// Capture the first layer, as the paper describes; the node
	// addresses it materializes are the same ones module enumeration
	// exposes, and the graph itself is discarded.
	if err := inst.stream.BeginCapture(); err != nil {
		return err
	}
	if err := inst.launchFirstLayerForward(batch); err != nil {
		inst.stream.EndCapture() //nolint:errcheck // already failing
		return fmt.Errorf("first-layer capture: %w", err)
	}
	if _, err := inst.stream.EndCapture(); err != nil {
		return err
	}
	return nil
}
