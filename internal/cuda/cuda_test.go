package cuda

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// testRuntime installs a small kernel set: two exported elementwise
// kernels and one hidden "cublas" kernel, across two libraries.
func testRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt := NewRuntime()
	// vec_add(dst, a, b, n): dst[i] = a[i] + b[i]
	rt.MustRegister(KernelImpl{
		Name: "vec_add_f32", Library: "libops.so", Module: "mod_elem", Exported: true,
		Params: []ParamKind{Ptr, Ptr, Ptr, U32},
		Func: func(d *gpu.Device, args []Value) error {
			n := int(args[3].U32())
			dst, dOff, _ := d.FindBuffer(args[0].Ptr())
			a, aOff, _ := d.FindBuffer(args[1].Ptr())
			b, bOff, _ := d.FindBuffer(args[2].Ptr())
			if dst == nil || a == nil || b == nil {
				return errors.New("illegal memory access")
			}
			av, err := a.Float32s(int(aOff/4), n)
			if err != nil {
				return err
			}
			bv, err := b.Float32s(int(bOff/4), n)
			if err != nil {
				return err
			}
			out := make([]float32, n)
			for i := range out {
				out[i] = av[i] + bv[i]
			}
			return dst.SetFloat32s(int(dOff/4), out)
		},
	})
	// vec_scale(dst, src, scale, n): dst[i] = src[i] * scale
	rt.MustRegister(KernelImpl{
		Name: "vec_scale_f32", Library: "libops.so", Module: "mod_elem", Exported: true,
		Params: []ParamKind{Ptr, Ptr, F32, U32},
		Func: func(d *gpu.Device, args []Value) error {
			n := int(args[3].U32())
			dst, dOff, _ := d.FindBuffer(args[0].Ptr())
			src, sOff, _ := d.FindBuffer(args[1].Ptr())
			if dst == nil || src == nil {
				return errors.New("illegal memory access")
			}
			sv, err := src.Float32s(int(sOff/4), n)
			if err != nil {
				return err
			}
			out := make([]float32, n)
			for i := range out {
				out[i] = sv[i] * math.Float32frombits(uint32(args[2].Bits))
			}
			return dst.SetFloat32s(int(dOff/4), out)
		},
	})
	// Hidden gemm-like kernel: dst[0] = sum(src[0..n)) (stands in for a
	// closed-source cuBLAS kernel).
	rt.MustRegister(KernelImpl{
		Name: "sim_cublas_reduce", Library: "libcublas_sim.so", Module: "mod_gemm", Exported: false,
		Params: []ParamKind{Ptr, Ptr, U32},
		Func: func(d *gpu.Device, args []Value) error {
			n := int(args[2].U32())
			dst, dOff, _ := d.FindBuffer(args[0].Ptr())
			src, sOff, _ := d.FindBuffer(args[1].Ptr())
			if dst == nil || src == nil {
				return errors.New("illegal memory access")
			}
			sv, err := src.Float32s(int(sOff/4), n)
			if err != nil {
				return err
			}
			var sum float32
			for _, v := range sv {
				sum += v
			}
			return dst.SetFloat32s(int(dOff/4), []float32{sum})
		},
	})
	// A public companion in the same module, usable as a
	// triggering-kernel for mod_gemm.
	rt.MustRegister(KernelImpl{
		Name: "sim_cublas_probe", Library: "libcublas_sim.so", Module: "mod_gemm", Exported: true,
		Params: []ParamKind{U32},
		Func:   func(d *gpu.Device, args []Value) error { return nil },
	})
	return rt
}

func newProc(t testing.TB, seed int64) *Process {
	t.Helper()
	return NewProcess(testRuntime(t), vclock.New(), Config{Seed: seed, Mode: gpu.Functional})
}

func mustMalloc(t testing.TB, p *Process, size uint64) uint64 {
	t.Helper()
	a, err := p.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestValueEncodeDecodeRoundTrip: a value encoded as a graph node
// param decodes back to itself through DecodeArgs.
func TestValueEncodeDecodeRoundTrip(t *testing.T) {
	f := func(bits uint64, kindRaw uint8) bool {
		kind := ParamKind(kindRaw % 4)
		v := Value{Kind: kind, Bits: bits}
		if kind.Size() == 4 {
			v.Bits = bits & 0xffffffff
		}
		p := v.Param()
		if int(p.Size) != kind.Size() {
			return false
		}
		got, err := DecodeArgs(nil, []ParamKind{kind}, []Param{p})
		return err == nil && len(got) == 1 && got[0] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueAccessors(t *testing.T) {
	if PtrValue(0x7f12).Ptr() != 0x7f12 {
		t.Fatal("PtrValue round trip")
	}
	if U32Value(7).U32() != 7 {
		t.Fatal("U32Value round trip")
	}
	if U64Value(1<<40).U64() != 1<<40 {
		t.Fatal("U64Value round trip")
	}
	if math.Float32frombits(uint32(F32Value(-0.25).Bits)) != -0.25 {
		t.Fatal("F32Value round trip")
	}
}

func TestDecodeArgsSizeMismatch(t *testing.T) {
	if _, err := DecodeArgs(nil, []ParamKind{Ptr}, []Param{U32Value(1).Param()}); err == nil {
		t.Fatal("DecodeArgs accepted 4 bytes for Ptr")
	}
	if _, err := DecodeArgs(nil, []ParamKind{U32}, []Param{U32Value(1).Param(), U32Value(2).Param()}); err == nil {
		t.Fatal("DecodeArgs accepted wrong arity")
	}
}

func TestRuntimeRegistration(t *testing.T) {
	rt := testRuntime(t)
	if len(rt.impls) != 4 {
		t.Fatalf("%d kernels registered, want 4", len(rt.impls))
	}
	if err := rt.Register(KernelImpl{Name: "vec_add_f32", Library: "x", Module: "y"}); err == nil {
		t.Fatal("duplicate kernel registration succeeded")
	}
	if err := rt.Register(KernelImpl{Name: "", Library: "x", Module: "y"}); err == nil {
		t.Fatal("nameless kernel registration succeeded")
	}
}

func TestLaunchExecutesFunctionally(t *testing.T) {
	p := newProc(t, 1)
	s := p.NewStream()
	const n = 8
	a := mustMalloc(t, p, n*4)
	b := mustMalloc(t, p, n*4)
	dst := mustMalloc(t, p, n*4)
	ab, _ := p.Device().Buffer(a)
	bb, _ := p.Device().Buffer(b)
	for i := 0; i < n; i++ {
		ab.SetFloat32s(i, []float32{float32(i)})
		bb.SetFloat32s(i, []float32{10})
	}
	if err := p.Launch(s, "vec_add_f32", []Value{PtrValue(dst), PtrValue(a), PtrValue(b), U32Value(n)}); err != nil {
		t.Fatal(err)
	}
	db, _ := p.Device().Buffer(dst)
	for i := 0; i < n; i++ {
		v, _ := db.Float32(i)
		if v != float32(i)+10 {
			t.Fatalf("dst[%d] = %v, want %v", i, v, float32(i)+10)
		}
	}
}

func TestLaunchUnknownKernel(t *testing.T) {
	p := newProc(t, 2)
	err := p.Launch(p.NewStream(), "no_such_kernel", nil)
	if !errors.As(err, new(*UnknownKernelError)) {
		t.Fatalf("Launch unknown kernel = %v", err)
	}
}

func TestLaunchSchemaMismatch(t *testing.T) {
	p := newProc(t, 3)
	s := p.NewStream()
	err := p.Launch(s, "vec_add_f32", []Value{U32Value(1)})
	if !errors.As(err, new(*ParamMismatchError)) {
		t.Fatalf("arity mismatch = %v", err)
	}
	err = p.Launch(s, "vec_add_f32", []Value{U32Value(1), U32Value(1), U32Value(1), U32Value(1)})
	if !errors.As(err, new(*ParamMismatchError)) {
		t.Fatalf("kind mismatch = %v", err)
	}
}

func TestModuleLoadSemantics(t *testing.T) {
	p := newProc(t, 4)
	s := p.NewStream()
	if _, ok := p.KernelByName("vec_add_f32"); ok {
		t.Fatal("kernel loaded before first launch")
	}
	d := mustMalloc(t, p, 16)
	if err := p.Launch(s, "vec_scale_f32", []Value{PtrValue(d), PtrValue(d), F32Value(1), U32Value(4)}); err != nil {
		t.Fatal(err)
	}
	// Loading vec_scale's module loads its whole module, including
	// vec_add — the module-granularity property (§5).
	if _, ok := p.KernelByName("vec_add_f32"); !ok {
		t.Fatal("sibling kernel not loaded with module")
	}
	if _, ok := p.KernelByName("sim_cublas_reduce"); ok {
		t.Fatal("kernel of unloaded module appeared")
	}
	mods := p.LoadedModules()
	if len(mods) != 1 || mods[0].Name != "mod_elem" {
		t.Fatalf("LoadedModules = %v", mods)
	}
	ks := p.ModuleEnumerateFunctions(mods[0])
	if len(ks) != 2 {
		t.Fatalf("module enumeration found %d kernels, want 2", len(ks))
	}
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name()] = true
		if got, ok := p.KernelByAddr(k.Addr()); !ok || got != k {
			t.Fatalf("KernelByAddr(%#x) = %v, %v", k.Addr(), got, ok)
		}
	}
	if !names["vec_add_f32"] || !names["vec_scale_f32"] {
		t.Fatalf("enumerated names = %v", names)
	}
}

func TestKernelAddressesRandomizedAcrossProcesses(t *testing.T) {
	get := func(seed int64) uint64 {
		p := newProc(t, seed)
		d := mustMalloc(t, p, 16)
		if err := p.Launch(p.NewStream(), "vec_add_f32", []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}); err != nil {
			t.Fatal(err)
		}
		k, _ := p.KernelByName("vec_add_f32")
		return k.Addr()
	}
	if get(100) == get(200) {
		t.Fatal("kernel address identical across process seeds")
	}
	if get(300) != get(300) {
		t.Fatal("kernel address differs for identical seeds")
	}
}

func TestGetFuncBySymbol(t *testing.T) {
	p := newProc(t, 5)
	ll, err := p.Linker().Dlopen("libcublas_sim.so")
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Linker().Dlsym(ll, "sim_cublas_probe")
	if err != nil {
		t.Fatal(err)
	}
	k, err := p.GetFuncBySymbol(h)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "sim_cublas_probe" {
		t.Fatalf("GetFuncBySymbol name = %q", k.Name())
	}
	// Its module load made the hidden sibling enumerable.
	if _, ok := p.KernelByName("sim_cublas_reduce"); !ok {
		t.Fatal("hidden sibling not loaded by GetFuncBySymbol")
	}
}

func TestCaptureBuildsLinearGraph(t *testing.T) {
	p := newProc(t, 6)
	s := p.NewStream()
	d := mustMalloc(t, p, 64)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	// Warm-up: load the module outside capture.
	if err := p.Launch(s, "vec_add_f32", args); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if p.capture == nil {
		t.Fatal("no capture state during capture")
	}
	for i := 0; i < 3; i++ {
		if err := p.Launch(s, "vec_add_f32", args); err != nil {
			t.Fatal(err)
		}
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d, want 3", g.NodeCount())
	}
	// Linear chain: node i depends on i-1.
	for i, n := range g.Nodes() {
		if i == 0 && len(n.Deps) != 0 {
			t.Fatalf("node 0 deps = %v", n.Deps)
		}
		if i > 0 && (len(n.Deps) != 1 || int(n.Deps[0]) != i-1) {
			t.Fatalf("node %d deps = %v", i, n.Deps)
		}
		if len(n.Params) != 4 || n.Params[0].Size != 8 || n.Params[3].Size != 4 {
			t.Fatalf("node %d params malformed: %v", i, n.Params)
		}
	}
}

func TestCaptureRejectsConcurrent(t *testing.T) {
	p := newProc(t, 7)
	s1, s2 := p.NewStream(), p.NewStream()
	if err := s1.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := s2.BeginCapture(); !errors.Is(err, ErrCaptureActive) {
		t.Fatalf("second BeginCapture = %v", err)
	}
	if _, err := s2.EndCapture(); !errors.Is(err, ErrNoCapture) {
		t.Fatalf("EndCapture on non-capturing stream = %v", err)
	}
	if _, err := s1.EndCapture(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncDuringCaptureInvalidates(t *testing.T) {
	p := newProc(t, 8)
	s := p.NewStream()
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := p.DeviceSynchronize(); !errors.As(err, new(*CaptureInvalidatedError)) {
		t.Fatalf("sync during capture = %v", err)
	}
	if _, err := s.EndCapture(); !errors.As(err, new(*CaptureInvalidatedError)) {
		t.Fatalf("EndCapture after invalidation = %v", err)
	}
}

func TestColdCaptureWithoutWarmupFails(t *testing.T) {
	// Launching a kernel whose module is not yet loaded during capture
	// triggers a lazy module load, which synchronizes — the exact
	// failure that forces warm-up forwarding (§2.3).
	p := newProc(t, 9)
	s := p.NewStream()
	d := mustMalloc(t, p, 16)
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	err := p.Launch(s, "vec_add_f32", []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)})
	if !errors.As(err, new(*CaptureInvalidatedError)) {
		t.Fatalf("cold launch during capture = %v", err)
	}
	if _, err := s.EndCapture(); err == nil {
		t.Fatal("EndCapture succeeded after invalidated capture")
	}
}

func TestCrossStreamEventDependencies(t *testing.T) {
	p := newProc(t, 10)
	s1, s2 := p.NewStream(), p.NewStream()
	d := mustMalloc(t, p, 16)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	if err := p.Launch(s1, "vec_add_f32", args); err != nil { // warm-up
		t.Fatal(err)
	}
	if err := s1.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	ev := p.NewEvent()
	p.Launch(s1, "vec_add_f32", args) // node 0
	s1.RecordEvent(ev)
	s2.WaitEvent(ev)
	p.Launch(s2, "vec_add_f32", args) // node 1, depends on 0 via event
	p.Launch(s1, "vec_add_f32", args) // node 2, depends on 0 via stream order
	g, err := s1.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	n1 := g.Nodes()[1]
	if len(n1.Deps) != 1 || n1.Deps[0] != 0 {
		t.Fatalf("cross-stream node deps = %v, want [0]", n1.Deps)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 {
		t.Fatalf("topo order = %v, node 0 must come first", order)
	}
}

// TestStreamMadeDuringCapture: a stream created after BeginCapture
// joins the capture's per-stream state, in stream order and through
// events, like one created before it.
func TestStreamMadeDuringCapture(t *testing.T) {
	p := newProc(t, 14)
	s1 := p.NewStream()
	d := mustMalloc(t, p, 16)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	if err := p.Launch(s1, "vec_add_f32", args); err != nil { // warm-up
		t.Fatal(err)
	}
	if err := s1.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	p.Launch(s1, "vec_add_f32", args) // node 0
	s2 := p.NewStream()
	ev := p.NewEvent()
	s1.RecordEvent(ev)
	s2.WaitEvent(ev)
	p.Launch(s2, "vec_add_f32", args) // node 1, depends on 0 via event
	p.Launch(s2, "vec_add_f32", args) // node 2, depends on 1 via stream order
	g, err := s1.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range [][]int32{nil, {0}, {1}} {
		if got := g.Nodes()[id].Deps; !slices.Equal(got, want) {
			t.Fatalf("node %d deps = %v, want %v", id, got, want)
		}
	}
}

func TestGraphReplayMatchesDirectExecution(t *testing.T) {
	// Build the same pipeline twice: once directly, once captured and
	// replayed. Outputs must match — self-replaying (§2.2).
	run := func(replay bool) []float32 {
		p := newProc(t, 11)
		s := p.NewStream()
		const n = 4
		src := mustMalloc(t, p, n*4)
		mid := mustMalloc(t, p, n*4)
		out := mustMalloc(t, p, n*4)
		sb, _ := p.Device().Buffer(src)
		sb.SetFloat32s(0, []float32{1, 2, 3, 4})
		scaleArgs := []Value{PtrValue(mid), PtrValue(src), F32Value(2), U32Value(n)}
		addArgs := []Value{PtrValue(out), PtrValue(mid), PtrValue(src), U32Value(n)}
		if err := p.Launch(s, "vec_scale_f32", scaleArgs); err != nil { // warm-up / direct
			panic(err)
		}
		if err := p.Launch(s, "vec_add_f32", addArgs); err != nil {
			panic(err)
		}
		if replay {
			if err := s.BeginCapture(); err != nil {
				panic(err)
			}
			p.Launch(s, "vec_scale_f32", scaleArgs)
			p.Launch(s, "vec_add_f32", addArgs)
			g, err := s.EndCapture()
			if err != nil {
				panic(err)
			}
			ge, err := g.Instantiate(p)
			if err != nil {
				panic(err)
			}
			// Clobber outputs, then replay must regenerate them.
			ob, _ := p.Device().Buffer(out)
			ob.SetFloat32s(0, []float32{-1, -1, -1, -1})
			if err := ge.Launch(s); err != nil {
				panic(err)
			}
		}
		ob, _ := p.Device().Buffer(out)
		vs, _ := ob.Float32s(0, n)
		return vs
	}
	direct, replayed := run(false), run(true)
	for i := range direct {
		if direct[i] != replayed[i] {
			t.Fatalf("replay[%d] = %v, direct = %v", i, replayed[i], direct[i])
		}
	}
	if direct[0] != 3 || direct[3] != 12 { // 2x+x = 3x
		t.Fatalf("pipeline result = %v", direct)
	}
}

func TestInstantiateRejectsStaleKernelAddress(t *testing.T) {
	p := newProc(t, 12)
	s := p.NewStream()
	d := mustMalloc(t, p, 16)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	p.Launch(s, "vec_add_f32", args)
	s.BeginCapture()
	p.Launch(s, "vec_add_f32", args)
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh process has different ASLR; the captured address is stale.
	p2 := newProc(t, 13)
	d2 := mustMalloc(t, p2, 16)
	p2.Launch(p2.NewStream(), "vec_add_f32", []Value{PtrValue(d2), PtrValue(d2), PtrValue(d2), U32Value(4)})
	if _, err := g.Instantiate(p2); !errors.As(err, new(*UnknownKernelError)) {
		t.Fatalf("Instantiate with stale address = %v", err)
	}
}

func TestGraphValidateCatchesCycles(t *testing.T) {
	n0 := &Node{ID: 0, Deps: []int32{1}}
	n1 := &Node{ID: 1, Deps: []int32{0}}
	g := NewGraph([]*Node{n0, n1})
	if err := g.Validate(); err == nil {
		t.Fatal("cyclic graph validated")
	}
	bad := NewGraph([]*Node{{ID: 0, Deps: []int32{5}}})
	if err := bad.Validate(); err == nil {
		t.Fatal("dangling dependency validated")
	}
}

func TestNodeClone(t *testing.T) {
	n := &Node{ID: 3, KernelAddr: 0x99, Params: []Param{{Image: [8]byte{1, 2}, Size: 2}}, Deps: []int32{1}}
	c := n.Clone()
	c.Params[0].Image[0] = 9
	c.Deps[0] = 7
	if n.Params[0].Image[0] != 1 || n.Deps[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestAllocAndLaunchHooks(t *testing.T) {
	p := newProc(t, 14)
	var allocs []AllocEvent
	var launches []LaunchRecord
	p.SetHooks(Hooks{
		OnAlloc:  func(ev AllocEvent) { allocs = append(allocs, ev) },
		OnLaunch: func(rec LaunchRecord) { launches = append(launches, rec) },
	})
	s := p.NewStream()
	a := mustMalloc(t, p, 128)
	b := mustMalloc(t, p, 64)
	p.Free(a)
	c := mustMalloc(t, p, 128)
	_ = c
	if len(allocs) != 4 {
		t.Fatalf("alloc events = %d, want 4", len(allocs))
	}
	if allocs[0].AllocIndex != 0 || allocs[1].AllocIndex != 1 {
		t.Fatalf("alloc indices = %+v", allocs[:2])
	}
	if !allocs[2].Free || allocs[2].AllocIndex != 0 {
		t.Fatalf("free event = %+v", allocs[2])
	}
	if allocs[3].AllocIndex != 2 {
		t.Fatalf("post-free alloc index = %+v", allocs[3])
	}
	args := []Value{PtrValue(b), PtrValue(b), PtrValue(b), U32Value(4)}
	p.Launch(s, "vec_add_f32", args)
	s.BeginCapture()
	p.Launch(s, "vec_add_f32", args)
	g, _ := s.EndCapture()
	if g == nil {
		t.Fatal("capture failed")
	}
	if len(launches) != 2 {
		t.Fatalf("launch records = %d, want 2", len(launches))
	}
	if launches[0].Captured || !launches[1].Captured || launches[1].NodeID != 0 {
		t.Fatalf("launch capture flags = %+v", launches)
	}
	if len(launches[1].Params) != 4 || len(launches[1].Params[0].Raw()) != 8 {
		t.Fatalf("raw params malformed: %+v", launches[1].Params)
	}
}

func TestTimingGraphVsIndividualLaunches(t *testing.T) {
	// A graph replay of N kernels must cost less CPU time than N
	// individual launches — the premise of Figure 3.
	p := newProc(t, 15)
	s := p.NewStream()
	d := mustMalloc(t, p, 64)
	args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
	p.Launch(s, "vec_add_f32", args) // warm-up
	const n = 50
	indiv := p.Clock().Span(func() {
		for i := 0; i < n; i++ {
			p.Launch(s, "vec_add_f32", args)
		}
	})
	s.BeginCapture()
	for i := 0; i < n; i++ {
		p.Launch(s, "vec_add_f32", args)
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	ge, err := g.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	replay := p.Clock().Span(func() {
		if err := ge.Launch(s); err != nil {
			t.Fatal(err)
		}
	})
	if replay >= indiv {
		t.Fatalf("graph replay (%v) not faster than %d individual launches (%v)", replay, n, indiv)
	}
}

func TestMemcpyHtoD(t *testing.T) {
	p := newProc(t, 16)
	a := mustMalloc(t, p, 16)
	before := p.Clock().Now()
	if err := p.MemcpyHtoD(a+4, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if p.Clock().Now() == before {
		t.Fatal("MemcpyHtoD charged no time")
	}
	b, _ := p.Device().Buffer(a)
	got := make([]byte, 3)
	b.ReadAt(4, got)
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("MemcpyHtoD contents = %v", got)
	}
	if err := p.MemcpyHtoD(0xdead, []byte{1}); err == nil {
		t.Fatal("MemcpyHtoD to unmapped address succeeded")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.LaunchOverhead != 5*time.Microsecond || cfg.GraphLaunchOverhead != 30*time.Microsecond {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.HtoDBandwidth != 25e9 {
		t.Fatalf("HtoDBandwidth default = %v", cfg.HtoDBandwidth)
	}
}

// Property: captured graphs always validate and topologically order,
// for any number of interleaved launches across up to 3 streams with
// random event edges.
func TestCaptureAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		p := newProc(t, seed)
		streams := []*Stream{p.NewStream(), p.NewStream(), p.NewStream()}
		d, err := p.Malloc(16)
		if err != nil {
			return false
		}
		args := []Value{PtrValue(d), PtrValue(d), PtrValue(d), U32Value(4)}
		if p.Launch(streams[0], "vec_add_f32", args) != nil { // warm-up
			return false
		}
		if streams[0].BeginCapture() != nil {
			return false
		}
		var ev *Event
		for _, op := range ops {
			s := streams[op%3]
			switch (op / 3) % 3 {
			case 0, 1:
				if p.Launch(s, "vec_add_f32", args) != nil {
					return false
				}
			case 2:
				if ev == nil {
					ev = p.NewEvent()
					s.RecordEvent(ev)
				} else {
					s.WaitEvent(ev)
					ev = nil
				}
			}
		}
		g, err := streams[0].EndCapture()
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		order, err := g.TopoOrder()
		if err != nil || len(order) != g.NodeCount() {
			return false
		}
		// Every dependency must precede its dependent in the order.
		pos := make(map[int]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, n := range g.Nodes() {
			for _, dep := range n.Deps {
				if pos[int(dep)] >= pos[n.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeArgsImagesIsolated: each param an argument encodes to
// holds its image inline, zero past its width, and Raw() ends at its
// capacity, so appending to one image copies instead of writing into
// the param.
func TestEncodeArgsImagesIsolated(t *testing.T) {
	args := []Value{PtrValue(0x7f00_0000_1000), U32Value(7), F32Value(2), U64Value(9)}
	params := make([]Param, len(args))
	for i, a := range args {
		params[i] = a.Param()
	}
	for i := range params {
		p := &params[i]
		img := p.Raw()
		if len(img) != args[i].Kind.Size() || cap(img) != len(img) {
			t.Fatalf("image %d: len %d cap %d, want both %d", i, len(img), cap(img), args[i].Kind.Size())
		}
		if want := binary.LittleEndian.AppendUint64(nil, args[i].Bits)[:len(img)]; !bytes.Equal(img, want) {
			t.Fatalf("image %d = %x, want %x", i, img, want)
		}
		if tail := p.Image[p.Size:]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("image %d has non-zero bytes %x past its width", i, tail)
		}
	}
	before := slices.Clone(params)
	_ = append(params[1].Raw(), 0xAA, 0xBB, 0xCC, 0xDD)
	if !slices.Equal(params, before) {
		t.Fatal("appending to image 1 changed the params")
	}
	if got, err := DecodeArgs(nil, []ParamKind{Ptr, U32, F32, U64}, params); err != nil || !slices.Equal(got, args) {
		t.Fatalf("DecodeArgs = %v, %v; want %v", got, err, args)
	}
}

// Clone returns a deep copy of the node: tests snapshot nodes with it
// before comparing them against a later state or another build path.
func (n *Node) Clone() *Node {
	return &Node{ID: n.ID, KernelAddr: n.KernelAddr, Params: slices.Clone(n.Params), Deps: slices.Clone(n.Deps)}
}
