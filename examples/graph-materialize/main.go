// graph-materialize is a tour of the low-level materialization API,
// independent of the LLM engine: capture a small CUDA graph while
// recording the allocation/launch trace, analyze it into an artifact,
// serialize it, and restore it inside a *different* process whose
// address space layout (allocator base, library bases) is completely
// different — then replay and compare outputs.
//
//	go run ./examples/graph-materialize
package main

import (
	"bytes"
	"fmt"
	"log"
	"maps"
	"slices"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/vclock"
)

const n = 8

func main() {
	rt := kernels.NewRuntime()

	fmt.Println("== offline process ==")
	art, reference := offline(rt)
	encoded, err := art.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifact: %d bytes, %d nodes, %d alloc events, kernels: %v\n\n",
		len(encoded), art.TotalNodes(), len(art.AllocSeq), keys(art))

	fmt.Println("== online process (different ASLR, different heap) ==")
	decoded, err := medusa.Decode(encoded)
	if err != nil {
		log.Fatal(err)
	}
	restored := online(rt, decoded)
	if bytes.Equal(reference, restored) {
		fmt.Println("✓ replayed output of the restored graph matches the original bit-for-bit")
	} else {
		log.Fatal("✗ outputs differ")
	}
}

// offline captures a two-kernel pipeline and materializes it.
func offline(rt *cuda.Runtime) (*medusa.Artifact, []byte) {
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 1, Mode: gpu.Functional})
	rec := medusa.NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()

	// "Model loading": one persistent input buffer.
	src := mustMalloc(p, n*4)
	rec.LabelLastAlloc("src")
	dst := mustMalloc(p, n*4)
	rec.LabelLastAlloc("dst")
	writeInput(p, src)

	rec.MarkCaptureStageBegin()
	// Warm-up loads the kernels' module (capture would otherwise fail
	// with the simulated cudaErrorStreamCaptureUnsupported).
	scaleArgs := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(3), cuda.U32Value(n)}
	copyArgs := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(dst), cuda.U32Value(n)}
	must(p.Launch(s, kernels.ElemCopy, copyArgs))
	must(p.Launch(s, kernels.RMSNorm, []cuda.Value{
		cuda.PtrValue(dst), cuda.PtrValue(src), cuda.PtrValue(src), cuda.U32Value(1), cuda.U32Value(n)}))
	_ = scaleArgs

	must(s.BeginCapture())
	must(p.Launch(s, kernels.RMSNorm, []cuda.Value{
		cuda.PtrValue(dst), cuda.PtrValue(src), cuda.PtrValue(src), cuda.U32Value(1), cuda.U32Value(n)}))
	must(p.Launch(s, kernels.ElemCopy, copyArgs))
	g, err := s.EndCapture()
	must(err)
	must(rec.AttachGraph(1, g))
	rec.MarkCaptureStageEnd()
	rec.RecordKV(medusa.KVRecord{NumBlocks: 1, BlockBytes: 1})

	fmt.Printf("captured graph: %d nodes; node 0 kernel addr %#x (will differ online)\n",
		g.NodeCount(), g.Nodes()[0].KernelAddr)

	art, err := medusa.Analyze(rec, p, medusa.AnalyzeOptions{ModelName: "pipeline"})
	must(err)

	ge, err := g.Instantiate(p)
	must(err)
	must(ge.Launch(s))
	return art, snapshot(p, dst)
}

// online restores the artifact in a fresh process and replays it.
func online(rt *cuda.Runtime, art *medusa.Artifact) []byte {
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 999, Mode: gpu.Functional})
	rest, err := medusa.NewRestorer(p, art)
	must(err)
	s := p.NewStream()

	// Natural control flow re-creates the prefix allocations…
	src := mustMalloc(p, n*4)
	dst := mustMalloc(p, n*4)
	writeInput(p, src)
	_ = dst

	// …and Medusa replays the rest and rebuilds the graph. All kernels
	// here are exported, so the dlsym route suffices (no trigger).
	must(rest.ReplayPrefix())
	must(rest.ReplayCaptureStage())
	graphs, err := rest.RestoreGraphs(nil)
	must(err)
	ge := graphs[1]
	fmt.Printf("restored graph: %d nodes; node 0 kernel addr %#x\n",
		ge.Graph().NodeCount(), ge.Graph().Nodes()[0].KernelAddr)
	must(ge.Launch(s))
	addr, _ := rest.AddrOfLabel("dst")
	return snapshot(p, addr)
}

func mustMalloc(p *cuda.Process, size uint64) uint64 {
	a, err := p.Malloc(size)
	must(err)
	return a
}

func writeInput(p *cuda.Process, addr uint64) {
	b, _, ok := p.Device().FindBuffer(addr)
	if !ok {
		log.Fatal("input buffer missing")
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) + 1
	}
	must(b.SetFloat32s(0, vals))
}

func snapshot(p *cuda.Process, addr uint64) []byte {
	b, _, ok := p.Device().FindBuffer(addr)
	if !ok {
		log.Fatal("snapshot buffer missing")
	}
	out, err := b.Snapshot()
	must(err)
	return out
}

// keys lists the artifact's kernel names, sorted: map order varies
// from run to run.
func keys(art *medusa.Artifact) []string {
	return slices.Sorted(maps.Keys(art.Kernels))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
