package medusa

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// offlineBenchFixture builds a recorder + graphs without test assertions.
func offlineBenchFixture(b testing.TB, nodes int) (*cuda.Process, *Recorder) {
	return offlineBatchFixture(b, nodes, 1)
}

// offlineBatchFixture captures the nodes-node graph once per batch
// 1..batches, each batch's graph differing from the others only in its
// element-count scalar, as a model's per-batch graphs do.
func offlineBatchFixture(b testing.TB, nodes, batches int) (*cuda.Process, *Recorder) {
	b.Helper()
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 1, Mode: gpu.CostOnly})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()
	src, err := p.Malloc(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := p.Malloc(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	rec.MarkCaptureStageBegin()
	args := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(64)}
	if err := p.Launch(s, "toy_scale", args); err != nil {
		b.Fatal(err)
	}
	for batch := 1; batch <= batches; batch++ {
		args[3] = cuda.U32Value(uint32(64 * batch))
		if err := s.BeginCapture(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			if err := p.Launch(s, "toy_scale", args); err != nil {
				b.Fatal(err)
			}
		}
		g, err := s.EndCapture()
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.AttachGraph(batch, g); err != nil {
			b.Fatal(err)
		}
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})
	return p, rec
}

func BenchmarkAnalyze1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	opts := AnalyzeOptions{ModelName: "bench", SkipContents: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(rec, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := art.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
	}
}

// deltaBenchFixture returns the 1k-node artifact with the given number
// of batches and a template built from a one-batch 900-node sibling:
// the graph delta needs both the aligned scan and the seed index, as a
// real sibling-model delta does, and further batches chain off the
// first.
func deltaBenchFixture(b testing.TB, batches int) (*Artifact, *Template) {
	b.Helper()
	analyze := func(nodes, batches int) *Artifact {
		p, rec := offlineBatchFixture(b, nodes, batches)
		art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
		if err != nil {
			b.Fatal(err)
		}
		return art
	}
	tmpl, err := BuildTemplate("medusa/templates/bench", analyze(900, 1))
	if err != nil {
		b.Fatal(err)
	}
	return analyze(1000, batches), tmpl
}

// chainBatches is the batch count of the chained-graph fixture: the
// 35 graphs a zoo model captures.
const chainBatches = 35

func BenchmarkEncodeDelta1kNodes(b *testing.B)    { benchEncodeDelta(b, 1) }
func BenchmarkEncodeDelta35x1kNodes(b *testing.B) { benchEncodeDelta(b, chainBatches) }

func benchEncodeDelta(b *testing.B, batches int) {
	art, tmpl := deltaBenchFixture(b, batches)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := art.EncodeDelta(tmpl)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
	}
}

func BenchmarkDecodeResolved1kNodes(b *testing.B)    { benchDecodeResolved(b, 1) }
func BenchmarkDecodeResolved35x1kNodes(b *testing.B) { benchDecodeResolved(b, chainBatches) }

func benchDecodeResolved(b *testing.B, batches int) {
	art, tmpl := deltaBenchFixture(b, batches)
	raw, err := art.EncodeDelta(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	resolve := func(string) (*Template, bool) { return tmpl, true }
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResolved(raw, resolve); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := art.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// tableScaleFixture approximates a Table-1-sized offline trace
// (Qwen1.5-0.5B: ~9.1k graph nodes over 35 graphs, a few thousand live
// allocations). Nodes reference buffers spread across the whole
// allocation history, so the linear matcher's backward scan pays the
// average-case O(events) cost the index removes.
func tableScaleFixture(b *testing.B) (*cuda.Process, *Recorder) {
	b.Helper()
	const (
		nAllocs   = 4096
		nGraphs   = 35
		nodesPer  = 260
		allocSize = 1 << 12
	)
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 1, Mode: gpu.CostOnly})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()
	bufs := make([]uint64, nAllocs)
	for i := range bufs {
		ptr, err := p.Malloc(allocSize)
		if err != nil {
			b.Fatal(err)
		}
		bufs[i] = ptr
	}
	rec.MarkCaptureStageBegin()
	if err := p.Launch(s, "toy_scale", []cuda.Value{
		cuda.PtrValue(bufs[0]), cuda.PtrValue(bufs[1]), cuda.F32Value(2), cuda.U32Value(64),
	}); err != nil {
		b.Fatal(err)
	}
	pick := uint64(12345)
	for g := 0; g < nGraphs; g++ {
		if err := s.BeginCapture(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodesPer; i++ {
			pick = pick*6364136223846793005 + 1442695040888963407
			dst := bufs[pick%nAllocs]
			src := bufs[(pick>>16)%nAllocs]
			args := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(64)}
			if err := p.Launch(s, "toy_scale", args); err != nil {
				b.Fatal(err)
			}
		}
		g2, err := s.EndCapture()
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.AttachGraph(g+1, g2); err != nil {
			b.Fatal(err)
		}
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})
	return p, rec
}

// BenchmarkAnalyzeWallclock measures end-to-end Analyze wall-clock time
// on the Table-1-scale trace, comparing the pre-PR linear matcher
// against the interval index, sequentially and with the worker pool.
// (The index is built once and cached on the recorder; its construction
// cost shows up in the first iteration only, as in the real offline
// phase where one index serves all 35 graphs.)
func BenchmarkAnalyzeWallclock(b *testing.B) {
	p, rec := tableScaleFixture(b)
	cases := []struct {
		name string
		opts AnalyzeOptions
	}{
		{"linear-seq", AnalyzeOptions{LinearMatch: true, Parallelism: 1}},
		{"indexed-seq", AnalyzeOptions{Parallelism: 1}},
		{"linear-parallel", AnalyzeOptions{LinearMatch: true}},
		{"indexed-parallel", AnalyzeOptions{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := tc.opts
			opts.ModelName = "bench"
			opts.SkipContents = true
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(rec, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBackwardMatch(b *testing.B) {
	// A deep event history with the match near the end: the common case
	// (kernels use recently allocated buffers).
	rec := NewRecorder()
	hooks := rec.Hooks()
	for i := 0; i < 4096; i++ {
		hooks.OnAlloc(cuda.AllocEvent{AllocIndex: i, Size: 4096, Addr: 0x7f30_0000_0000 + uint64(i)*8192})
	}
	target := uint64(0x7f30_0000_0000 + 4000*8192 + 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := rec.backwardMatch(len(rec.events), target); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkBackwardMatchIndexed(b *testing.B) {
	// Same trace and probe as BenchmarkBackwardMatch, resolved through
	// the interval index: two binary searches instead of a linear scan.
	rec := NewRecorder()
	hooks := rec.Hooks()
	for i := 0; i < 4096; i++ {
		hooks.OnAlloc(cuda.AllocEvent{AllocIndex: i, Size: 4096, Addr: 0x7f30_0000_0000 + uint64(i)*8192})
	}
	target := uint64(0x7f30_0000_0000 + 4000*8192 + 128)
	ix := rec.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ix.BackwardMatch(len(rec.events), target); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkRestore1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := restoreOnce(art); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "nodes/restore")
}

// BenchmarkFirstLaunch1kNodes is BenchmarkRestore1kNodes plus the
// build the graph's first launch pays: its nodes, params and order.
func BenchmarkFirstLaunch1kNodes(b *testing.B) {
	p, rec := offlineBenchFixture(b, 1000)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "bench", SkipContents: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := firstLaunchOnce(art); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "nodes/restore")
}

// restoreRuntime is the kernel environment restoreOnce's processes share.
var restoreRuntime = toyRuntime()

// restoreOnce restores art into a fresh process: replay, permanent
// contents, and every graph checked and instantiated, to be built on
// its first launch.
func restoreOnce(art *Artifact) (map[int]*cuda.GraphExec, error) {
	fresh := cuda.NewProcess(restoreRuntime, vclock.New(), cuda.Config{Seed: 2, Mode: gpu.CostOnly})
	rest, err := NewRestorer(fresh, art)
	if err != nil {
		return nil, err
	}
	if err := rest.ReplayPrefix(); err != nil {
		return nil, err
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		return nil, err
	}
	return rest.RestoreGraphs(nil)
}

// firstLaunchOnce is restoreOnce plus the build every graph's first
// launch pays: its nodes and topological order.
func firstLaunchOnce(art *Artifact) error {
	execs, err := restoreOnce(art)
	for _, ge := range execs {
		ge.Graph()
	}
	return err
}

// TestCodecAllocCeilings holds the codec's, the analysis's and the
// restore path's allocations per call on the 1k-node fixture under the
// checked-in ceilings in testdata/max_allocs_<op>_1k, and their heap
// bytes per call under testdata/max_bytes_<op>_1k: Encode allocates its
// output once, at its exact length (the bytes ceiling is that length
// rounded up to its size class, plus the kernel table's 16-byte name
// slice), analysis and decode keep each graph's deps
// and param records (images inline) in per-graph slabs, restore builds
// no node until a graph is launched, and the first launch builds a
// graph's nodes, params (images inline) and deps in one slab each.
// The _35x1k ops run the v3 codec on the same graph captured at 35
// batches, where the graphs chain: it streams them one at a time, so
// its bytes grow with the graphs decoded, not with the v2 body.
func TestCodecAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	art, tmpl := deltaBenchFixture(t, 1)
	v2, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	v3, err := art.EncodeDelta(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	chain, _ := deltaBenchFixture(t, chainBatches)
	chainV3, err := chain.EncodeDelta(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(string) (*Template, bool) { return tmpl, true }
	proc, rec := offlineBenchFixture(t, 1000)
	analyzeOpts := AnalyzeOptions{ModelName: "bench", SkipContents: true}
	ops := []struct {
		file      string
		bytesFile string // optional bytes-per-call ceiling
		run       func() error
	}{
		{"max_allocs_encode_1k", "max_bytes_encode_1k", func() error { _, err := art.Encode(); return err }},
		{"max_allocs_encode_delta_1k", "max_bytes_encode_delta_1k", func() error { _, err := art.EncodeDelta(tmpl); return err }},
		{"max_allocs_decode_1k", "max_bytes_decode_1k", func() error { _, err := Decode(v2); return err }},
		{"max_allocs_decode_resolved_1k", "max_bytes_decode_resolved_1k", func() error { _, err := DecodeResolved(v3, resolve); return err }},
		{"max_allocs_encode_delta_35x1k", "max_bytes_encode_delta_35x1k", func() error { _, err := chain.EncodeDelta(tmpl); return err }},
		{"max_allocs_decode_resolved_35x1k", "max_bytes_decode_resolved_35x1k", func() error { _, err := DecodeResolved(chainV3, resolve); return err }},
		{"max_allocs_analyze_1k", "max_bytes_analyze_1k", func() error { _, err := Analyze(rec, proc, analyzeOpts); return err }},
		{"max_allocs_restore_1k", "max_bytes_restore_1k", func() error { _, err := restoreOnce(art); return err }},
		{"max_allocs_first_launch_1k", "max_bytes_first_launch_1k", func() error { return firstLaunchOnce(art) }},
	}
	for _, op := range ops {
		var runErr error
		run := func() {
			if err := op.run(); err != nil {
				runErr = err
			}
		}
		checkCeiling(t, op.file, "allocs/op", testing.AllocsPerRun(5, run))
		if op.bytesFile != "" {
			checkCeiling(t, op.bytesFile, "bytes/op", bytesPerRun(5, run))
		}
		if runErr != nil {
			t.Fatalf("%s: %v", op.file, runErr)
		}
	}
}

// checkCeiling fails the test when got exceeds the ceiling checked in
// at testdata/file.
func checkCeiling(t *testing.T, file, unit string, got float64) {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("testdata/%s: %v", file, err)
	}
	t.Logf("%s: %.0f %s (ceiling %.0f)", file, got, unit, limit)
	if got > limit {
		t.Errorf("%.0f %s exceeds checked-in ceiling %.0f (testdata/%s); "+
			"if the regression is intentional, update the ceiling deliberately", got, unit, limit, file)
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average
// bytes one call of f allocates, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestEncodeExactSize runs checkExactSize on the 1k-node artifact and
// on the 1k-node graph captured at 35 batches.
func TestEncodeExactSize(t *testing.T) {
	for _, batches := range []int{1, chainBatches} {
		art, _ := deltaBenchFixture(t, batches)
		raw, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		checkExactSize(t, art, raw)
	}
}

// checkExactSize requires raw, a's Encode, to be one buffer of exactly
// the length sectionLen finds: len and cap both.
func checkExactSize(t *testing.T, a *Artifact, raw []byte) {
	t.Helper()
	want := envelopeLen + trailerLen
	for i := range numBodySections {
		want += a.sectionLen(i)
	}
	if len(raw) != want || cap(raw) != want {
		t.Fatalf("Encode returned len %d cap %d, sectionLen found %d", len(raw), cap(raw), want)
	}
}
