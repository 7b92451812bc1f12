package engine

import (
	"fmt"
	"slices"

	"github.com/medusa-repro/medusa/internal/obs"
)

// stageCapture is stage ⑤: for each of the capture batch sizes, run a
// warm-up forwarding (loading modules and initializing the cuBLAS
// workspace for the batch's GEMM bucket — prohibited operations during
// capture), then capture the same forwarding into a CUDA graph and
// instantiate it. Graphs are captured one by one: concurrent captures
// are a CUDA error (§2.2).
func (inst *Instance) stageCapture() error {
	rec := inst.opts.Recorder
	if rec != nil {
		rec.MarkCaptureStageBegin()
	}
	done := inst.stageSpan("graph_capture")
	for _, batch := range inst.opts.CaptureSizes {
		if err := inst.warmupAndCapture(batch); err != nil {
			return fmt.Errorf("batch %d: %w", batch, err)
		}
	}
	done(obs.Attr{Key: "batch_sizes", Value: fmt.Sprint(len(inst.opts.CaptureSizes))})
	if rec != nil {
		rec.MarkCaptureStageEnd()
	}
	return nil
}

// warmupAndCapture performs one batch size's warm-up forwarding,
// capture forwarding, and instantiation.
func (inst *Instance) warmupAndCapture(batch int) error {
	p, s := inst.proc, inst.stream
	if err := inst.primeDecodeInputs(batch, 0); err != nil {
		return err
	}

	// Warm-up forwarding.
	scratch, err := p.Malloc(uint64(batch) * uint64(inst.opts.Model.Hidden) * 4)
	if err != nil {
		return err
	}
	if err := inst.launchDecodeForward(batch); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := p.Free(scratch); err != nil {
		return err
	}
	// The 4-byte probe models a small allocator-cache interaction:
	// freed here, its address is handed to the next bucket's 4-byte
	// cuBLAS workspace allocation — the address-reuse aliasing of
	// Figure 6 that trace-based backward matching must resolve (and
	// naive first-match provably does not; see ablation-index).
	probe, err := p.Malloc(4)
	if err != nil {
		return err
	}
	if err := p.Free(probe); err != nil {
		return err
	}

	// Capture forwarding.
	if err := s.BeginCapture(); err != nil {
		return err
	}
	if err := inst.launchDecodeForward(batch); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	g, err := s.EndCapture()
	if err != nil {
		return err
	}
	want := inst.opts.Model.BaseNodesPerGraph()
	if inst.graphPadded(batch) {
		want++
	}
	if g.NodeCount() != want {
		return fmt.Errorf("captured %d nodes, model structure predicts %d", g.NodeCount(), want)
	}
	if inst.opts.Recorder != nil {
		if err := inst.opts.Recorder.AttachGraph(batch, g); err != nil {
			return err
		}
	}
	ge, err := g.Instantiate(p)
	if err != nil {
		return err
	}
	inst.graphs[batch] = ge
	return nil
}

// graphPadded reports whether the graph for a batch size gets the
// padding node (model.Config.GraphPadded, from the padded sizes the
// instance computed once).
func (inst *Instance) graphPadded(batch int) bool {
	return slices.Contains(inst.padded, batch)
}

func maxInt(vals []int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
