// Package kernels installs the simulated GPU kernel set used by the
// inference engine: the building blocks of a decoder-only transformer
// forwarding (embedding, RMSNorm, GEMM, RoPE + KV-cache write, paged
// attention, SiLU, residual add, LM head, sampling).
//
// Kernels split into two worlds, mirroring the paper's §5:
//
//   - Exported kernels live in libmedusa_ops.so with dlsym-visible
//     symbols. Their addresses restore through the
//     dlopen/dlsym/cudaGetFuncBySymbol path.
//   - Hidden kernels — the batch-bucketed GEMM variants in
//     libcublas_sim.so — are absent from the symbol table, like real
//     cuBLAS kernels. They group into per-bucket modules and can only be
//     located by loading the module (via a triggering-kernel) and
//     enumerating it.
//
// The hidden GEMMs also require two 4-byte workspace buffers holding
// magic numbers (the paper's §4.3 "permanent buffers"): in functional
// mode the kernel refuses to run if the magic is wrong, so a restore
// that fails to reproduce permanent buffer contents fails loudly.
package kernels

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
)

// Library names.
const (
	LibOps    = "libmedusa_ops.so"
	LibCublas = "libcublas_sim.so"
)

// GemmBuckets are the batch-size buckets for which distinct hidden GEMM
// variants exist, modelling cuBLAS tile-size kernel selection. A batch
// size selects the smallest bucket that covers it.
var GemmBuckets = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// GemmBucket returns the bucket covering batch size b.
func GemmBucket(b int) int {
	for _, k := range GemmBuckets {
		if b <= k {
			return k
		}
	}
	return GemmBuckets[len(GemmBuckets)-1]
}

// Name formats of the per-bucket GEMM kernels and their modules.
const (
	gemmKernelFormat = "sim_cublas_sgemm_128x%d_tn"
	gemmModuleFormat = "cublas_mod_sgemm_%d"
)

// Per-bucket GEMM kernel and module names, formatted once: every
// decode forward looks its bucket's kernel up by name.
var (
	gemmKernelNames = bucketNames(gemmKernelFormat)
	gemmModuleNames = bucketNames(gemmModuleFormat)
)

func bucketNames(format string) map[int]string {
	names := make(map[int]string, len(GemmBuckets))
	for _, b := range GemmBuckets {
		names[b] = fmt.Sprintf(format, b)
	}
	return names
}

// GemmKernelName returns the mangled name of the hidden GEMM variant for
// a bucket.
func GemmKernelName(bucket int) string {
	if name, ok := gemmKernelNames[bucket]; ok {
		return name
	}
	return fmt.Sprintf(gemmKernelFormat, bucket)
}

// GemmModuleName returns the module that carries a bucket's GEMM variant.
func GemmModuleName(bucket int) string {
	if name, ok := gemmModuleNames[bucket]; ok {
		return name
	}
	return fmt.Sprintf(gemmModuleFormat, bucket)
}

// WorkspaceMagic returns the two magic words a bucket's GEMM variant
// expects in its workspace buffers.
func WorkspaceMagic(bucket int) (uint32, uint32) {
	return 0xC0DE0000 | uint32(bucket), 0xFACE0000 | uint32(bucket)
}

// Exported kernel names.
const (
	EmbedLookup  = "medusa_embed_lookup_f32"
	RMSNorm      = "medusa_rmsnorm_f32"
	RopeCache    = "medusa_rope_kvcache_f32"
	PagedAttn    = "medusa_paged_attention_f32"
	ResidualAdd  = "medusa_residual_add_f32"
	SiluMul      = "medusa_silu_mul_f32"
	BiasAdd      = "medusa_bias_add_f32"
	LMHeadGemm   = "medusa_lm_head_gemm_f32"
	SampleArgmax = "medusa_sample_argmax"
	ElemCopy     = "medusa_elementwise_copy_f32"
	PadBatch     = "medusa_pad_batch_marker"
	// PrefillGemm is the workspace-free GEMM used by prefill-shaped
	// forwardings (including the KV-profiling run). Decode-shaped
	// forwardings — the ones CUDA graphs capture — use the hidden
	// bucketed cuBLAS variants instead, which is why cuBLAS workspace
	// initialization happens during warm-up, inside the capture stage.
	PrefillGemm = "medusa_prefill_gemm_f32"
)

// KVBlockTokens is the number of tokens per paged KV cache block,
// matching vLLM's default block size of 16.
const KVBlockTokens = 16

// fetch resolves a pointer argument to (buffer, element offset).
func fetch(d *gpu.Device, v cuda.Value) (*gpu.Buffer, int, error) {
	b, off, ok := d.FindBuffer(v.Ptr())
	if !ok {
		return nil, 0, fmt.Errorf("illegal memory access at %#x", v.Ptr())
	}
	if off%4 != 0 {
		return nil, 0, fmt.Errorf("misaligned pointer %#x", v.Ptr())
	}
	return b, int(off / 4), nil
}

// Register installs every kernel into the runtime. Call once per
// Runtime at setup.
func Register(rt *cuda.Runtime) {
	registerExported(rt)
	registerHiddenGemms(rt)
}

// NewRuntime returns a runtime with the full kernel set installed.
func NewRuntime() *cuda.Runtime {
	rt := cuda.NewRuntime()
	Register(rt)
	return rt
}
