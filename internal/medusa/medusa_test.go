package medusa

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// Toy kernel set: one exported elementwise kernel, one hidden kernel
// with a permanent workspace, and one exported kernel with an 8-byte
// scalar that can masquerade as a pointer.
func toyRuntime() *cuda.Runtime {
	rt := cuda.NewRuntime()
	rt.MustRegister(cuda.KernelImpl{
		Name: "toy_scale", Library: "libtoy.so", Module: "toy_mod", Exported: true,
		Params: []cuda.ParamKind{cuda.Ptr, cuda.Ptr, cuda.F32, cuda.U32},
		Func: func(d *gpu.Device, a []cuda.Value) error {
			n := int(a[3].U32())
			dst, dOff, ok := d.FindBuffer(a[0].Ptr())
			if !ok {
				return errors.New("illegal dst")
			}
			src, sOff, ok := d.FindBuffer(a[1].Ptr())
			if !ok {
				return errors.New("illegal src")
			}
			v, err := src.Float32s(int(sOff/4), n)
			if err != nil {
				return err
			}
			out := make([]float32, n)
			for i := range out {
				out[i] = v[i] * math.Float32frombits(uint32(a[2].Bits))
			}
			return dst.SetFloat32s(int(dOff/4), out)
		},
	})
	rt.MustRegister(cuda.KernelImpl{
		Name: "toy_hidden_sum", Library: "libhidden.so", Module: "hidden_mod", Exported: false,
		Params: []cuda.ParamKind{cuda.Ptr, cuda.Ptr, cuda.Ptr, cuda.U32},
		Func: func(d *gpu.Device, a []cuda.Value) error {
			n := int(a[3].U32())
			dst, dOff, ok := d.FindBuffer(a[0].Ptr())
			if !ok {
				return errors.New("illegal dst")
			}
			src, sOff, ok := d.FindBuffer(a[1].Ptr())
			if !ok {
				return errors.New("illegal src")
			}
			ws, wOff, ok := d.FindBuffer(a[2].Ptr())
			if !ok {
				return errors.New("illegal ws")
			}
			bias, err := ws.Float32(int(wOff / 4))
			if err != nil {
				return err
			}
			v, err := src.Float32s(int(sOff/4), n)
			if err != nil {
				return err
			}
			sum := bias
			for _, x := range v {
				sum += x
			}
			return dst.SetFloat32s(int(dOff/4), []float32{sum})
		},
	})
	// A hidden sibling to make module enumeration non-trivial.
	rt.MustRegister(cuda.KernelImpl{
		Name: "toy_hidden_aux", Library: "libhidden.so", Module: "hidden_mod", Exported: false,
		Params: []cuda.ParamKind{cuda.Ptr},
		Func:   nil,
	})
	rt.MustRegister(cuda.KernelImpl{
		Name: "toy_seedmix", Library: "libtoy.so", Module: "toy_mod", Exported: true,
		Params: []cuda.ParamKind{cuda.Ptr, cuda.U64},
		Func: func(d *gpu.Device, a []cuda.Value) error {
			dst, dOff, ok := d.FindBuffer(a[0].Ptr())
			if !ok {
				return errors.New("illegal dst")
			}
			seed := a[1].U64()
			return dst.SetUint32(int(dOff/4)+1, uint32(seed)^uint32(seed>>32))
		},
	})
	return rt
}

const (
	bufBytes  = 64
	elemCount = 16
	wsBias    = float32(3.5)
)

// offlineRun drives a toy offline phase and returns the artifact plus
// the reference output (the original graph's replay result).
//
// seedAsAddress makes the toy_seedmix scalar equal the weights buffer's
// device address — the engineered §4 false positive.
func offlineRun(t *testing.T, rt *cuda.Runtime, seed int64, seedAsAddress bool) (*Artifact, []byte) {
	t.Helper()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: seed, Mode: gpu.Functional})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()

	weights := mustMalloc(t, p, bufBytes)
	rec.LabelLastAlloc("weights")
	writeFloats(t, p, weights, weightData())
	src := mustMalloc(t, p, bufBytes)
	rec.LabelLastAlloc("io.src")
	writeFloats(t, p, src, inputData())
	dst := mustMalloc(t, p, bufBytes)
	rec.LabelLastAlloc("io.dst")

	// Stand-in for the profiling forwarding: balanced temporaries.
	tmp := mustMalloc(t, p, 128)
	if err := p.Free(tmp); err != nil {
		t.Fatal(err)
	}

	rec.MarkCaptureStageBegin()

	// Warm-up: loads modules, allocates a temporary and the permanent
	// workspace.
	warmTemp := mustMalloc(t, p, 256)
	perm := mustMalloc(t, p, 4)
	writeFloats(t, p, perm, []float32{wsBias})
	seedVal := uint64(0x1234)
	if seedAsAddress {
		seedVal = weights // high-prefix scalar colliding with a live allocation
	}
	launches := func() error {
		if err := p.Launch(s, "toy_scale", []cuda.Value{
			cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(elemCount),
		}); err != nil {
			return err
		}
		if err := p.Launch(s, "toy_hidden_sum", []cuda.Value{
			cuda.PtrValue(dst + 4*4), cuda.PtrValue(weights), cuda.PtrValue(perm), cuda.U32Value(4),
		}); err != nil {
			return err
		}
		return p.Launch(s, "toy_seedmix", []cuda.Value{cuda.PtrValue(dst), cuda.U64Value(seedVal)})
	}
	if err := launches(); err != nil { // warm-up forwarding
		t.Fatal(err)
	}
	if err := p.Free(warmTemp); err != nil {
		t.Fatal(err)
	}

	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := launches(); err != nil {
		t.Fatal(err)
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AttachGraph(1, g); err != nil {
		t.Fatal(err)
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{FreeMemBytes: 1 << 30, NumBlocks: 512, BlockBytes: 2048})

	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "toy"})
	if err != nil {
		t.Fatal(err)
	}

	// Reference output: replay the original graph.
	ge, err := g.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	clearBuffer(t, p, dst)
	if err := ge.Launch(s); err != nil {
		t.Fatal(err)
	}
	return art, snapshot(t, p, dst)
}

// onlineRun restores the artifact in a fresh process and returns the
// replayed output.
func onlineRun(t *testing.T, rt *cuda.Runtime, art *Artifact, seed int64) ([]byte, error) {
	t.Helper()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: seed, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		return nil, err
	}
	s := p.NewStream()

	// Natural control flow: the same three IO allocations, weights
	// loading, no profiling, no capture.
	weights := mustMalloc(t, p, bufBytes)
	writeFloats(t, p, weights, weightData())
	src := mustMalloc(t, p, bufBytes)
	writeFloats(t, p, src, inputData())
	dst := mustMalloc(t, p, bufBytes)

	if err := rest.ReplayPrefix(); err != nil {
		return nil, err
	}
	if kv := rest.KV(); kv.NumBlocks != 512 {
		t.Fatalf("restored KV = %+v", kv)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		return nil, err
	}
	// Triggering-kernels: load the hidden module by running its kernel
	// once (libtoy deliberately NOT triggered, exercising the dlsym
	// path for exported kernels).
	trigger := func(batch int) error {
		scratchDst := mustMalloc(t, p, bufBytes)
		scratchWs := mustMalloc(t, p, 4)
		writeFloats(t, p, scratchWs, []float32{0})
		err := p.Launch(s, "toy_hidden_sum", []cuda.Value{
			cuda.PtrValue(scratchDst), cuda.PtrValue(weights), cuda.PtrValue(scratchWs), cuda.U32Value(4),
		})
		if err != nil {
			return err
		}
		if err := p.Free(scratchDst); err != nil {
			return err
		}
		return p.Free(scratchWs)
	}
	graphs, err := rest.RestoreGraphs(trigger)
	if err != nil {
		return nil, err
	}
	ge, ok := graphs[1]
	if !ok {
		t.Fatal("restored graphs missing batch 1")
	}
	clearBuffer(t, p, dst)
	if err := ge.Launch(s); err != nil {
		return nil, err
	}
	return snapshot(t, p, dst), nil
}

func weightData() []float32 {
	out := make([]float32, elemCount)
	for i := range out {
		out[i] = float32(i) * 0.25
	}
	return out
}

func inputData() []float32 {
	out := make([]float32, elemCount)
	for i := range out {
		out[i] = float32(i) - 7
	}
	return out
}

func mustMalloc(t *testing.T, p *cuda.Process, size uint64) uint64 {
	t.Helper()
	a, err := p.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func writeFloats(t *testing.T, p *cuda.Process, addr uint64, vals []float32) {
	t.Helper()
	b, _, ok := p.Device().FindBuffer(addr)
	if !ok {
		t.Fatalf("writeFloats: no buffer at %#x", addr)
	}
	if err := b.SetFloat32s(0, vals); err != nil {
		t.Fatal(err)
	}
}

func clearBuffer(t *testing.T, p *cuda.Process, addr uint64) {
	t.Helper()
	b, _, ok := p.Device().FindBuffer(addr)
	if !ok {
		t.Fatalf("clearBuffer: no buffer at %#x", addr)
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(0, make([]byte, len(snap))); err != nil {
		t.Fatal(err)
	}
}

func snapshot(t *testing.T, p *cuda.Process, addr uint64) []byte {
	t.Helper()
	b, _, ok := p.Device().FindBuffer(addr)
	if !ok {
		t.Fatalf("snapshot: no buffer at %#x", addr)
	}
	out, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOfflineOnlineEndToEnd(t *testing.T) {
	rt := toyRuntime()
	art, ref := offlineRun(t, rt, 1000, false)

	if got := art.TotalNodes(); got != 3 {
		t.Fatalf("TotalNodes = %d", got)
	}
	stats := art.Stats()
	// toy_scale: dst,src pointers + 2 constants; hidden_sum: 3 pointers
	// + 1 constant; seedmix: 1 pointer + 1 constant (small seed).
	if stats.Pointers != 6 || stats.Constants != 4 {
		t.Fatalf("Stats = %+v", stats)
	}
	for _, seed := range []int64{2000, 3000, 4000} {
		got, err := onlineRun(t, rt, art, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(got) != string(ref) {
			t.Fatalf("seed %d: restored output differs from reference", seed)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rt := toyRuntime()
	art, ref := offlineRun(t, rt, 1100, false)
	raw, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded artifact must be functionally identical: a restore
	// from it yields the reference output.
	got, err := onlineRun(t, rt, back, 2100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatal("decoded artifact restores differently")
	}
	if back.ModelName != "toy" || back.AllocCount != art.AllocCount || back.PrefixLen != art.PrefixLen {
		t.Fatalf("decoded header = %+v", back)
	}
	if len(back.Permanent) != len(art.Permanent) {
		t.Fatalf("permanent records = %d vs %d", len(back.Permanent), len(art.Permanent))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 1200, false)
	raw, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, 20, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corruption at offset %d", off)
		}
	}
	if _, err := Decode(raw[:10]); err == nil {
		t.Fatal("Decode accepted truncated artifact")
	}
	if _, err := Decode(raw[:len(raw)-3]); err == nil {
		t.Fatal("Decode accepted torn artifact")
	}
	// A v1 container (the six body sections, no checksum trailer) and
	// unknown versions fail on the version alone.
	v1 := make([]byte, envelopeLen)
	for i := range numBodySections {
		v1 = art.appendSection(v1, i)
	}
	for _, v := range []uint32{0, 1, 9} {
		_, err := Decode(seal(v1, wireMagic, v))
		want := fmt.Sprintf("artifact format v%d not supported (reads v2 and v3)", v)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("format v%d: Decode error = %v, want %q", v, err, want)
		}
	}
}

func TestPermanentBufferContentsRestored(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 1300, false)
	if len(art.Permanent) != 1 {
		t.Fatalf("permanent records = %d, want 1 (the workspace)", len(art.Permanent))
	}
	pr := art.Permanent[0]
	if pr.Size != 4 || pr.Contents == nil {
		t.Fatalf("permanent record = %+v", pr)
	}
	// Wipe the saved contents: the restored hidden_sum must now produce
	// a different value (bias lost), proving the contents mattered.
	ref, err := onlineRun(t, rt, art, 2300)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := *art
	zeroed.Permanent = []PermRecord{{AllocIndex: pr.AllocIndex, Size: 4, Contents: []byte{0, 0, 0, 0}}}
	got, err := onlineRun(t, rt, &zeroed, 2400)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(ref) {
		t.Fatal("zeroing permanent contents did not change replay output")
	}
}

func TestTemporaryBuffersNotSaved(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 1400, false)
	// Only the 4-byte workspace is permanent; the 256-byte warm-up
	// temporary must not appear.
	for _, pr := range art.Permanent {
		if pr.Size == 256 {
			t.Fatal("warm-up temporary saved as permanent")
		}
	}
	// But its allocation is still replayed (it holds an address slot).
	found := false
	for _, ev := range art.AllocSeq[art.PrefixLen:] {
		if !ev.Free && ev.Size == 256 {
			found = true
		}
	}
	if !found {
		t.Fatal("warm-up temporary missing from capture-stage replay")
	}
}

func TestFalsePositiveSeedCorrection(t *testing.T) {
	rt := toyRuntime()
	art, ref := offlineRun(t, rt, 1500, true)
	// The seed scalar collided with the weights buffer address and was
	// classified as a pointer.
	found := false
	for _, g := range art.Graphs {
		for _, n := range g.Nodes {
			if n.KernelName == "toy_seedmix" && n.Params[1].Pointer {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("engineered false positive was not classified as pointer")
	}
	// Uncorrected restore must produce wrong output (the seed is
	// rewritten to a new address).
	got, err := onlineRun(t, rt, art, 2500)
	if err == nil && string(got) == string(ref) {
		t.Fatal("false positive did not corrupt output — test is vacuous")
	}
	// Validation forwarding + correction demotes the group.
	validate := func(a *Artifact) ([]int, error) {
		out, err := onlineRun(t, rt, a, 2600)
		if err != nil {
			return nil, err
		}
		if string(out) != string(ref) {
			return []int{1}, nil
		}
		return nil, nil
	}
	res, err := (&*art).ValidateAndCorrect(validate)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Demoted) != 1 || res.Demoted[0].KernelName != "toy_seedmix" || res.Demoted[0].ParamIndex != 1 {
		t.Fatalf("Demoted = %+v", res.Demoted)
	}
	// Post-correction restore matches the reference.
	got, err = onlineRun(t, rt, art, 2700)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatal("corrected artifact still restores wrong output")
	}
}

func TestValidateAndCorrectCleanArtifact(t *testing.T) {
	rt := toyRuntime()
	art, ref := offlineRun(t, rt, 1600, false)
	calls := 0
	validate := func(a *Artifact) ([]int, error) {
		calls++
		out, err := onlineRun(t, rt, a, 2800)
		if err != nil {
			return nil, err
		}
		if string(out) != string(ref) {
			return []int{1}, nil
		}
		return nil, nil
	}
	res, err := art.ValidateAndCorrect(validate)
	if err != nil || len(res.Demoted) != 0 || calls != 1 {
		t.Fatalf("clean artifact: res=%+v err=%v calls=%d", res, err, calls)
	}
}

func TestBackwardMatchBeatsFirstMatchOnReuse(t *testing.T) {
	// Figure 6: allocation i and a later allocation share an address
	// after a free. Backward matching resolves to the later one; naive
	// first-match picks the stale one.
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 1700, Mode: gpu.Functional})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()

	dst := mustMalloc(t, p, bufBytes) // alloc 0
	stale := mustMalloc(t, p, 4096)   // alloc 1
	if err := p.Free(stale); err != nil {
		t.Fatal(err)
	}
	reused := mustMalloc(t, p, 4096) // alloc 2 — same address as alloc 1
	if reused != stale {
		t.Skip("allocator did not reuse the address; scenario not constructed")
	}
	writeFloats(t, p, reused, inputData())

	rec.MarkCaptureStageBegin()
	warm := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(reused), cuda.F32Value(1), cuda.U32Value(4)}
	if err := p.Launch(s, "toy_scale", warm); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := p.Launch(s, "toy_scale", warm); err != nil {
		t.Fatal(err)
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AttachGraph(1, g); err != nil {
		t.Fatal(err)
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})

	good, err := Analyze(rec, p, AnalyzeOptions{ModelName: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Analyze(rec, p, AnalyzeOptions{ModelName: "toy", NaiveFirstMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	srcGood := good.Graphs[0].Nodes[0].Params[1]
	srcBad := bad.Graphs[0].Nodes[0].Params[1]
	if srcGood.AllocIndex != 2 {
		t.Fatalf("backward match chose allocation %d, want 2", srcGood.AllocIndex)
	}
	if srcBad.AllocIndex != 1 {
		t.Fatalf("naive match chose allocation %d, want the stale 1", srcBad.AllocIndex)
	}
}

func TestInteriorPointerOffsetRestored(t *testing.T) {
	rt := toyRuntime()
	art, ref := offlineRun(t, rt, 1800, false)
	// hidden_sum's dst is dst+16: an interior pointer. Check the
	// artifact records a nonzero offset for it.
	foundOffset := false
	for _, g := range art.Graphs {
		for _, n := range g.Nodes {
			if n.KernelName == "toy_hidden_sum" && n.Params[0].Pointer && n.Params[0].Offset == 16 {
				foundOffset = true
			}
		}
	}
	if !foundOffset {
		t.Fatal("interior pointer offset not materialized")
	}
	got, err := onlineRun(t, rt, art, 2900)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatal("interior pointer restored incorrectly")
	}
}

func TestRestorerDetectsControlFlowDivergence(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 1900, false)
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 3100, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate with a size the artifact does not expect.
	if _, err := p.Malloc(bufBytes + 64); err != nil {
		t.Fatal(err)
	}
	if rest.verifyErr == nil {
		t.Fatal("size divergence undetected")
	}
	if err := rest.ReplayPrefix(); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("ReplayPrefix after divergence = %v", err)
	}
}

func TestRestorerRequiresFreshProcess(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 2001, false)
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 3200, Mode: gpu.Functional})
	if _, err := p.Malloc(8); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRestorer(p, art); err == nil {
		t.Fatal("NewRestorer attached to a dirty process")
	}
}

func TestRestoreGraphsRequiresReplayFirst(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 2002, false)
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 3300, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rest.RestoreGraphs(nil); err == nil {
		t.Fatal("RestoreGraphs succeeded before replay")
	}
}

func TestHiddenKernelNeedsTrigger(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 2003, false)
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 3400, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustMalloc(t, p, bufBytes)
	}
	if err := rest.ReplayPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		t.Fatal(err)
	}
	// No trigger ⇒ hidden_mod never loads ⇒ toy_hidden_sum unresolvable.
	if _, err := rest.RestoreGraphs(nil); err == nil || !strings.Contains(err.Error(), "hidden") {
		t.Fatalf("RestoreGraphs without trigger = %v", err)
	}
}

func TestRecorderStateChecks(t *testing.T) {
	rec := NewRecorder()
	p := cuda.NewProcess(toyRuntime(), vclock.New(), cuda.Config{Seed: 1, Mode: gpu.Functional})
	if _, err := Analyze(rec, p, AnalyzeOptions{}); err == nil {
		t.Fatal("Analyze without markers succeeded")
	}
	rec.LabelLastAlloc("x") // no allocations yet
	rec.MarkCaptureStageBegin()
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{})
	if _, err := Analyze(rec, p, AnalyzeOptions{}); err == nil {
		t.Fatal("Analyze after broken label succeeded")
	}
}

func TestArtifactAccessors(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 2004, false)
	if b := art.Batches(); len(b) != 1 || b[0] != 1 {
		t.Fatalf("Batches = %v", b)
	}
	if idx, ok := art.LabelIndex("weights"); !ok || idx != 0 {
		t.Fatalf("LabelIndex(weights) = %d, %v", idx, ok)
	}
	if _, ok := art.LabelIndex("nope"); ok {
		t.Fatal("LabelIndex(nope) found")
	}
	groups := art.PointerGroups()
	if len(groups) == 0 {
		t.Fatal("no pointer groups")
	}
}

func TestReplayOutOfMemory(t *testing.T) {
	// An artifact demanding more device memory than exists must fail
	// replay with the allocator's error, not corrupt state.
	art := &Artifact{
		ModelName:  "oom",
		AllocCount: 1,
		AllocSeq:   []AllocRecord{{AllocIndex: 0, Size: 1 << 60}},
		PrefixLen:  1,
		Kernels:    map[string]KernelLoc{},
		KV:         KVRecord{NumBlocks: 1, BlockBytes: 1},
	}
	p := cuda.NewProcess(toyRuntime(), vclock.New(), cuda.Config{Seed: 1, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayPrefix(); err == nil {
		t.Fatal("replay of impossible allocation succeeded")
	}
}

func TestRestorerPositionTracking(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 6000, false)
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 6100, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	if rest.cursor != 0 {
		t.Fatalf("initial position = %d", rest.cursor)
	}
	mustMalloc(t, p, bufBytes)
	if rest.cursor != 1 {
		t.Fatalf("position after one natural alloc = %d", rest.cursor)
	}
	if rest.verifyErr != nil {
		t.Fatalf("unexpected verify error: %v", rest.verifyErr)
	}
	// AddrOfLabel before the relevant replay: unknown.
	if _, ok := rest.AddrOfLabel("io.dst"); ok {
		t.Fatal("label resolved before its allocation")
	}
}

func TestRestoreGraphsUnknownKernel(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 6200, false)
	// Sabotage: point a node at a kernel the runtime does not install.
	bad := *art
	bad.Kernels["ghost_kernel"] = KernelLoc{Library: "libtoy.so", Exported: true}
	bad.Graphs[0].Nodes[0].KernelName = "ghost_kernel"
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 6300, Mode: gpu.Functional})
	rest, err := NewRestorer(p, &bad)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustMalloc(t, p, bufBytes)
	}
	if err := rest.ReplayPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		t.Fatal(err)
	}
	if _, err := rest.RestoreGraphs(nil); err == nil {
		t.Fatal("restore with unknown kernel succeeded")
	}
}
