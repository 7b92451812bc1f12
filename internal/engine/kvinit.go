package engine

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/kvcache"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/obs"
)

// gpuMemoryUtilization caps usable device memory like vLLM's
// gpu_memory_utilization default.
const gpuMemoryUtilization = 0.9

// kvElemBytes is the element width of KV cache entries: f32 for
// functional models, fp16 for the calibrated ones.
func (inst *Instance) kvElemBytes() int {
	if inst.opts.Model.Functional {
		return 4
	}
	return 2
}

// stageKVInit is the vanilla stage ④: run a profiling forwarding with
// the maximum token budget, read the residual free device memory, and
// carve the KV block pool from it.
func (inst *Instance) stageKVInit() error {
	clock := inst.proc.Clock()
	done := inst.stageSpan("kv_init")
	clock.Advance(kvProfileOverhead)
	profDone := inst.stageSpan("profiling_forward")
	if err := inst.runProfilingForward(); err != nil {
		return err
	}
	profDone()
	// Residual memory after the worst-case forwarding, under the
	// utilization cap.
	usable := uint64(gpuMemoryUtilization * float64(inst.proc.Device().Config().TotalMemory))
	peak := inst.proc.Device().PeakUsedMemory()
	if peak >= usable {
		return fmt.Errorf("engine: model leaves no room for KV cache (peak %d, usable %d)", peak, usable)
	}
	free := usable - peak
	blockBytes := kvcache.BlockBytes(inst.opts.Model.Hidden/inst.opts.Model.TP(), inst.kvElemBytes())
	numBlocks := kvcache.NumBlocksFor(free, blockBytes)
	if inst.opts.Model.Functional && numBlocks > functionalKVBlockCap {
		numBlocks = functionalKVBlockCap
	}
	if numBlocks == 0 {
		return fmt.Errorf("engine: free memory %d below one KV block (%d)", free, blockBytes)
	}
	inst.kvRecord = medusa.KVRecord{FreeMemBytes: free, NumBlocks: numBlocks, BlockBytes: blockBytes}
	if inst.opts.Recorder != nil {
		inst.opts.Recorder.RecordKV(inst.kvRecord)
	}
	err := inst.allocKVCache()
	done(obs.Attr{Key: "blocks", Value: fmt.Sprint(numBlocks)})
	return err
}

// allocKVCache reserves the contiguous K and V cache buffers and the
// block manager over them.
func (inst *Instance) allocKVCache() error {
	half := uint64(inst.kvRecord.NumBlocks) * inst.kvRecord.BlockBytes / 2
	k, err := inst.proc.Malloc(half)
	if err != nil {
		return fmt.Errorf("kv cache (K): %w", err)
	}
	if inst.opts.Recorder != nil {
		inst.opts.Recorder.LabelLastAlloc("kv.k")
	}
	v, err := inst.proc.Malloc(half)
	if err != nil {
		return fmt.Errorf("kv cache (V): %w", err)
	}
	if inst.opts.Recorder != nil {
		inst.opts.Recorder.LabelLastAlloc("kv.v")
	}
	inst.kcache, inst.vcache = k, v
	inst.kvMgr = kvcache.NewManager(inst.kvRecord.NumBlocks)
	inst.proc.Clock().Advance(kvBlockAllocDuration)
	return nil
}

// stageKVRestore is Medusa's replacement for stage ④ (§6): replay the
// allocation prefix (which covers the skipped profiling forwarding's
// balanced temporaries and ends with the KV cache reservations) and
// adopt the materialized block geometry.
func (inst *Instance) stageKVRestore() error {
	done := inst.stageSpan("kv_restore")
	if err := inst.restorer.ReplayPrefix(); err != nil {
		return err
	}
	k, okK := inst.restorer.AddrOfLabel("kv.k")
	v, okV := inst.restorer.AddrOfLabel("kv.v")
	if !okK || !okV {
		return fmt.Errorf("engine: artifact is missing KV cache labels")
	}
	inst.kcache, inst.vcache = k, v
	inst.kvRecord = inst.restorer.KV()
	inst.kvMgr = kvcache.NewManager(inst.kvRecord.NumBlocks)
	inst.proc.Clock().Advance(kvBlockAllocDuration)
	done(obs.Attr{Key: "blocks", Value: fmt.Sprint(inst.kvRecord.NumBlocks)})
	return nil
}

// runProfilingForward launches the prefill-shaped worst-case forwarding
// vLLM profiles with: full token budget through every layer, using the
// workspace-free prefill GEMM path (decode-shaped cuBLAS variants are
// first exercised during warm-up, not here). All buffers are
// temporaries, freed before the free-memory reading — but their
// allocation/free events are part of the materialized sequence.
func (inst *Instance) runProfilingForward() error {
	return inst.prefillLaunches(profileTokens(inst.opts.Model))
}

// prefillLaunches runs one prefill-shaped forwarding of T tokens over
// temporary activation buffers; serving-time prefills reuse it.
func (inst *Instance) prefillLaunches(T int) error {
	cfg := inst.opts.Model
	p := inst.proc
	h, f, v := cfg.Hidden, cfg.FFN, cfg.Vocab
	tp := cfg.TP()
	hd, fd, vd := h/tp, f/tp, v/tp

	var temps [6]uint64
	nTemps := 0
	alloc := func(elems int) (uint64, error) {
		a, err := p.Malloc(uint64(elems) * 4)
		if err != nil {
			return 0, err
		}
		temps[nTemps] = a
		nTemps++
		return a, nil
	}
	tIn, err := alloc(T * h)
	if err != nil {
		return err
	}
	tNorm, err := alloc(T * h)
	if err != nil {
		return err
	}
	tQKV, err := alloc(T * 3 * hd)
	if err != nil {
		return err
	}
	tGU, err := alloc(T * 2 * fd)
	if err != nil {
		return err
	}
	tMLP, err := alloc(T * fd)
	if err != nil {
		return err
	}
	tLogits, err := alloc(T * vd)
	if err != nil {
		return err
	}

	m := uint32(T)
	gemm := func(dst, src, w uint64, n, k int) error {
		return inst.launch(kernels.PrefillGemm,
			cuda.PtrValue(dst), cuda.PtrValue(src), cuda.PtrValue(w),
			cuda.U32Value(m), cuda.U32Value(uint32(n)), cuda.U32Value(uint32(k)))
	}
	for l := range inst.layers {
		w := &inst.layers[l]
		if err := inst.launch(kernels.RMSNorm,
			cuda.PtrValue(tNorm), cuda.PtrValue(tIn), cuda.PtrValue(w.inputNorm),
			cuda.U32Value(m), cuda.U32Value(uint32(h))); err != nil {
			return err
		}
		if err := gemm(tQKV, tNorm, w.wqkv, 3*hd, h); err != nil {
			return err
		}
		// Prefill attention stands in as a bandwidth-bound pass over the
		// projections; the profiling result only depends on memory
		// footprint and compute volume, not attention semantics.
		if err := inst.launch(kernels.ElemCopy,
			cuda.PtrValue(tIn), cuda.PtrValue(tQKV), cuda.U32Value(m*uint32(h))); err != nil {
			return err
		}
		if err := gemm(tGU, tNorm, w.wgateup, 2*fd, h); err != nil {
			return err
		}
		if err := inst.launch(kernels.SiluMul,
			cuda.PtrValue(tMLP), cuda.PtrValue(tGU),
			cuda.U32Value(m), cuda.U32Value(uint32(fd))); err != nil {
			return err
		}
		if err := gemm(tIn, tMLP, w.wdown, h, fd); err != nil {
			return err
		}
	}
	if err := inst.launch(kernels.LMHeadGemm,
		cuda.PtrValue(tLogits), cuda.PtrValue(tIn), cuda.PtrValue(inst.weights["lm_head"]),
		cuda.U32Value(m), cuda.U32Value(uint32(vd)), cuda.U32Value(uint32(h))); err != nil {
		return err
	}
	for _, a := range temps[:nTemps] {
		if err := p.Free(a); err != nil {
			return err
		}
	}
	return nil
}
