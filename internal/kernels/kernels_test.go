package kernels

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

func newProc(t testing.TB, seed int64) *cuda.Process {
	t.Helper()
	return cuda.NewProcess(NewRuntime(), vclock.New(), cuda.Config{Seed: seed, Mode: gpu.Functional})
}

func alloc(t testing.TB, p *cuda.Process, size uint64) (uint64, *gpu.Buffer) {
	t.Helper()
	a, err := p.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Device().Buffer(a)
	return a, b
}

func TestGemmBucketSelection(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 100: 128, 256: 256, 999: 256}
	for b, want := range cases {
		if got := GemmBucket(b); got != want {
			t.Errorf("GemmBucket(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestRegistrationInventory(t *testing.T) {
	rt := NewRuntime()
	// Each module holds exactly these kernels: the 12 ops kernels are
	// exported, and each of the 9 GEMM buckets' 3 variants is hidden, so
	// libcublas_sim.so exports nothing (§5).
	type module struct {
		exported bool
		names    []string
	}
	libs := map[string]map[string]module{
		LibOps: {
			opsModule("embed"):   {true, []string{EmbedLookup}},
			opsModule("norm"):    {true, []string{RMSNorm}},
			opsModule("attn"):    {true, []string{RopeCache, PagedAttn}},
			opsModule("elem"):    {true, []string{ResidualAdd, SiluMul, BiasAdd, ElemCopy, PadBatch}},
			opsModule("head"):    {true, []string{LMHeadGemm}},
			opsModule("sample"):  {true, []string{SampleArgmax}},
			opsModule("prefill"): {true, []string{PrefillGemm}},
		},
		LibCublas: {},
	}
	for _, b := range GemmBuckets {
		k := GemmKernelName(b)
		libs[LibCublas][GemmModuleName(b)] = module{false, []string{k, k + "_splitk", k + "_batched"}}
	}
	reg := rt.DL()
	// dl lays a library's symbols out from a fixed base at a fixed
	// stride, in registration order, so a probe symbol added last
	// counts the symbols already there. Measure base and stride on a
	// fresh library.
	probe := func(lib, name string) uint64 {
		t.Helper()
		s, err := reg.AddSymbol(lib, "probe_mod", name, false)
		if err != nil {
			t.Fatal(err)
		}
		return s.Offset
	}
	base := probe("probe.so", "first")
	stride := probe("probe.so", "second") - base
	total := 0
	for libName, mods := range libs {
		lib, ok := reg.Library(libName)
		if !ok {
			t.Fatalf("%s missing", libName)
		}
		n := 0
		for modName, want := range mods {
			syms, _ := lib.Module(modName)
			var got []string
			for _, s := range syms {
				got = append(got, s.Name)
				if s.Exported != want.exported {
					t.Errorf("%s: %s exported=%v, want %v", libName, s.Name, s.Exported, want.exported)
				}
			}
			if !slices.Equal(got, want.names) {
				t.Errorf("%s module %s = %v, want %v", libName, modName, got, want.names)
			}
			n += len(want.names)
		}
		if got := (probe(libName, "probe") - base) / stride; got != uint64(n) {
			t.Errorf("%s holds %d symbols, want %d", libName, got, n)
		}
		total += n
	}
	if want := 12 + len(GemmBuckets)*3; total != want {
		t.Errorf("inventory lists %d kernels, want %d", total, want)
	}
}

func TestGemmWorkspaceMagicEnforced(t *testing.T) {
	p := newProc(t, 1)
	s := p.NewStream()
	const m, n, k = 2, 3, 4
	dstA, _ := alloc(t, p, m*n*4)
	srcA, src := alloc(t, p, m*k*4)
	wA, w := alloc(t, p, k*n*4)
	ws1A, ws1 := alloc(t, p, 4)
	ws2A, ws2 := alloc(t, p, 4)
	src.SetFloat32s(0, []float32{1, 0, 0, 0, 0, 1, 0, 0})
	for i := 0; i < k*n; i++ {
		w.SetFloat32s(i, []float32{float32(i)})
	}
	name := GemmKernelName(GemmBucket(m))
	args := []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(srcA), cuda.PtrValue(wA),
		cuda.PtrValue(ws1A), cuda.PtrValue(ws2A),
		cuda.U32Value(m), cuda.U32Value(n), cuda.U32Value(k),
	}
	// Without the magic initialized, the launch must fail.
	if err := p.Launch(s, name, args); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("gemm without magic = %v, want magic mismatch", err)
	}
	mg1, mg2 := WorkspaceMagic(GemmBucket(m))
	ws1.SetUint32(0, mg1)
	ws2.SetUint32(0, mg2)
	if err := p.Launch(s, name, args); err != nil {
		t.Fatal(err)
	}
	dst, _ := p.Device().Buffer(dstA)
	// Row 0 of src is e0 ⇒ dst row 0 = w row 0 = [0,1,2]; row 1 = w row 1.
	got, _ := dst.Float32s(0, m*n)
	want := []float32{0, 1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gemm dst = %v, want %v", got, want)
		}
	}
}

func TestWorkspaceMagicDistinctPerBucket(t *testing.T) {
	seen := map[uint64]bool{}
	for _, b := range GemmBuckets {
		a, c := WorkspaceMagic(b)
		key := uint64(a)<<32 | uint64(c)
		if seen[key] {
			t.Fatalf("bucket %d reuses magic pair", b)
		}
		seen[key] = true
	}
}

func TestRMSNormNormalizes(t *testing.T) {
	p := newProc(t, 2)
	s := p.NewStream()
	const hidden = 4
	dstA, dst := alloc(t, p, hidden*4)
	srcA, src := alloc(t, p, hidden*4)
	wA, w := alloc(t, p, hidden*4)
	src.SetFloat32s(0, []float32{3, 3, 3, 3})
	w.SetFloat32s(0, []float32{1, 1, 1, 2})
	err := p.Launch(s, RMSNorm, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(srcA), cuda.PtrValue(wA),
		cuda.U32Value(1), cuda.U32Value(hidden),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Float32s(0, hidden)
	// rms of [3,3,3,3] is 3 ⇒ normalized to ~1, scaled by weight.
	for i, want := range []float32{1, 1, 1, 2} {
		if math.Abs(float64(got[i]-want)) > 1e-3 {
			t.Fatalf("rmsnorm = %v", got)
		}
	}
}

func TestEmbedLookup(t *testing.T) {
	p := newProc(t, 3)
	s := p.NewStream()
	const hidden, vocab, batch = 2, 3, 2
	dstA, dst := alloc(t, p, batch*hidden*4)
	tblA, tbl := alloc(t, p, vocab*hidden*4)
	idsA, ids := alloc(t, p, batch*4)
	tbl.SetFloat32s(0, []float32{0, 1, 10, 11, 20, 21})
	ids.SetUint32(0, 2)
	ids.SetUint32(1, 0)
	err := p.Launch(s, EmbedLookup, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(tblA), cuda.PtrValue(idsA),
		cuda.U32Value(batch), cuda.U32Value(hidden),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Float32s(0, batch*hidden)
	want := []float32{20, 21, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("embed = %v, want %v", got, want)
		}
	}
}

func TestRopeCacheAndPagedAttention(t *testing.T) {
	p := newProc(t, 4)
	s := p.NewStream()
	const hidden, batch, maxBlocks = 4, 1, 2
	const cacheElems = maxBlocks * KVBlockTokens * hidden
	qkvA, qkv := alloc(t, p, batch*3*hidden*4)
	kcA, _ := alloc(t, p, cacheElems*4)
	vcA, _ := alloc(t, p, cacheElems*4)
	// Metadata buffer: [blockTable | seqlens].
	metaA, meta := alloc(t, p, (batch*maxBlocks+batch)*4)
	outA, out := alloc(t, p, batch*hidden*4)
	meta.SetUint32(0, 0) // block 0
	meta.SetUint32(1, 1) // block 1
	meta.SetUint32(batch*maxBlocks, 1)
	qkv.SetFloat32s(0, []float32{
		1, 0, 0, 0, // q
		0, 1, 0, 0, // k
		5, 6, 7, 8, // v
	})
	slPtr := metaA + uint64(batch*maxBlocks)*4 // interior pointer
	if err := p.Launch(s, RopeCache, []cuda.Value{
		cuda.PtrValue(qkvA), cuda.PtrValue(kcA), cuda.PtrValue(vcA),
		cuda.PtrValue(metaA), cuda.PtrValue(slPtr),
		cuda.U32Value(batch), cuda.U32Value(hidden), cuda.U32Value(maxBlocks),
	}); err != nil {
		t.Fatal(err)
	}
	// Position 0 ⇒ rotation by angle 0 leaves vectors unchanged; k and v
	// must now be in the cache.
	kc, _ := p.Device().Buffer(kcA)
	kv, _ := kc.Float32s(0, hidden)
	if kv[1] != 1 {
		t.Fatalf("k not written to cache: %v", kv)
	}
	if err := p.Launch(s, PagedAttn, []cuda.Value{
		cuda.PtrValue(outA), cuda.PtrValue(qkvA), cuda.PtrValue(kcA), cuda.PtrValue(vcA),
		cuda.PtrValue(metaA),
		cuda.U32Value(batch), cuda.U32Value(hidden), cuda.U32Value(maxBlocks),
	}); err != nil {
		t.Fatal(err)
	}
	// Single cached token ⇒ softmax weight 1 ⇒ output equals v.
	got, _ := out.Float32s(0, hidden)
	want := []float32{5, 6, 7, 8}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("attention out = %v, want %v", got, want)
		}
	}
}

func TestSiluMulAndResidual(t *testing.T) {
	p := newProc(t, 5)
	s := p.NewStream()
	const hidden = 2
	dstA, dst := alloc(t, p, hidden*4)
	guA, gu := alloc(t, p, 2*hidden*4)
	gu.SetFloat32s(0, []float32{0, 100, 3, 5}) // gate=[0,100], up=[3,5]
	if err := p.Launch(s, SiluMul, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(guA), cuda.U32Value(1), cuda.U32Value(hidden),
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Float32s(0, hidden)
	// silu(0)=0, silu(100)≈100 ⇒ [0*3, 100*5].
	if got[0] != 0 || math.Abs(float64(got[1]-500)) > 0.1 {
		t.Fatalf("silu_mul = %v", got)
	}
	aA, a := alloc(t, p, hidden*4)
	bA, b := alloc(t, p, hidden*4)
	a.SetFloat32s(0, []float32{1, 2})
	b.SetFloat32s(0, []float32{10, 20})
	if err := p.Launch(s, ResidualAdd, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(aA), cuda.PtrValue(bA), cuda.U32Value(hidden),
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = dst.Float32s(0, hidden)
	if got[0] != 11 || got[1] != 22 {
		t.Fatalf("residual_add = %v", got)
	}
}

func TestSampleArgmaxSeedSensitivity(t *testing.T) {
	p := newProc(t, 6)
	s := p.NewStream()
	const batch, vocab = 1, 4
	dstA, dst := alloc(t, p, batch*2*4)
	lgA, lg := alloc(t, p, batch*vocab*4)
	lg.SetFloat32s(0, []float32{0.1, 0.9, 0.3, 0.2})
	run := func(seed uint64) (uint32, uint32) {
		if err := p.Launch(s, SampleArgmax, []cuda.Value{
			cuda.PtrValue(dstA), cuda.PtrValue(lgA),
			cuda.U32Value(batch), cuda.U32Value(vocab), cuda.U64Value(seed),
		}); err != nil {
			t.Fatal(err)
		}
		tok, _ := dst.Uint32(0)
		mix, _ := dst.Uint32(1)
		return tok, mix
	}
	tok1, mix1 := run(42)
	tok2, mix2 := run(43)
	if tok1 != 1 || tok2 != 1 {
		t.Fatalf("argmax token = %d/%d, want 1", tok1, tok2)
	}
	// Different seed scalar must change observable output — this is what
	// lets validation forwarding detect a seed misclassified as pointer.
	if mix1 == mix2 {
		t.Fatal("sample mix word insensitive to seed")
	}
}

func TestLMHeadAndCopyAndPad(t *testing.T) {
	p := newProc(t, 7)
	s := p.NewStream()
	const hidden, vocab = 2, 3
	dstA, dst := alloc(t, p, vocab*4)
	srcA, src := alloc(t, p, hidden*4)
	wA, w := alloc(t, p, vocab*hidden*4)
	src.SetFloat32s(0, []float32{1, 2})
	w.SetFloat32s(0, []float32{1, 0, 0, 1, 1, 1})
	if err := p.Launch(s, LMHeadGemm, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(srcA), cuda.PtrValue(wA),
		cuda.U32Value(1), cuda.U32Value(vocab), cuda.U32Value(hidden),
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Float32s(0, vocab)
	want := []float32{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lm_head = %v, want %v", got, want)
		}
	}
	cpA, cp := alloc(t, p, vocab*4)
	if err := p.Launch(s, ElemCopy, []cuda.Value{
		cuda.PtrValue(cpA), cuda.PtrValue(dstA), cuda.U32Value(vocab),
	}); err != nil {
		t.Fatal(err)
	}
	cv, _ := cp.Float32s(0, vocab)
	if cv[2] != 3 {
		t.Fatalf("copy = %v", cv)
	}
	if err := p.Launch(s, PadBatch, []cuda.Value{cuda.PtrValue(cpA), cuda.U32Value(99)}); err != nil {
		t.Fatal(err)
	}
	u, _ := cp.Uint32(0)
	if u != 99 {
		t.Fatalf("pad marker = %d", u)
	}
}

func TestBiasAdd(t *testing.T) {
	p := newProc(t, 8)
	s := p.NewStream()
	const hidden = 2
	dstA, dst := alloc(t, p, 2*hidden*4)
	bA, b := alloc(t, p, hidden*4)
	dst.SetFloat32s(0, []float32{1, 2, 3, 4})
	b.SetFloat32s(0, []float32{10, 20})
	if err := p.Launch(s, BiasAdd, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(bA), cuda.U32Value(2), cuda.U32Value(hidden),
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Float32s(0, 2*hidden)
	want := []float32{11, 22, 13, 24}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bias_add = %v, want %v", got, want)
		}
	}
}

// Property: the GEMM functional implementation is linear in its input:
// gemm(αx) = α·gemm(x) for random small matrices.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seedRaw uint8, scaleRaw uint8) bool {
		p := newProc(t, int64(seedRaw)+100)
		s := p.NewStream()
		const m, n, k = 2, 2, 2
		scale := float32(scaleRaw%7) + 1
		dstA, _ := alloc(t, p, m*n*4)
		srcA, src := alloc(t, p, m*k*4)
		wA, w := alloc(t, p, k*n*4)
		ws1A, ws1 := alloc(t, p, 4)
		ws2A, ws2 := alloc(t, p, 4)
		mg1, mg2 := WorkspaceMagic(GemmBucket(m))
		ws1.SetUint32(0, mg1)
		ws2.SetUint32(0, mg2)
		base := []float32{1, 2, 3, 4}
		w.SetFloat32s(0, []float32{1, -1, 0.5, 2})
		args := []cuda.Value{
			cuda.PtrValue(dstA), cuda.PtrValue(srcA), cuda.PtrValue(wA),
			cuda.PtrValue(ws1A), cuda.PtrValue(ws2A),
			cuda.U32Value(m), cuda.U32Value(n), cuda.U32Value(k),
		}
		name := GemmKernelName(GemmBucket(m))
		src.SetFloat32s(0, base)
		if p.Launch(s, name, args) != nil {
			return false
		}
		dst, _ := p.Device().Buffer(dstA)
		y1, _ := dst.Float32s(0, m*n)
		scaled := make([]float32, len(base))
		for i := range base {
			scaled[i] = base[i] * scale
		}
		src.SetFloat32s(0, scaled)
		if p.Launch(s, name, args) != nil {
			return false
		}
		y2, _ := dst.Float32s(0, m*n)
		for i := range y1 {
			if math.Abs(float64(y2[i]-scale*y1[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefillGemm(t *testing.T) {
	p := newProc(t, 9)
	s := p.NewStream()
	const m, n, k = 2, 2, 2
	dstA, dst := alloc(t, p, m*n*4)
	srcA, src := alloc(t, p, m*k*4)
	wA, w := alloc(t, p, k*n*4)
	src.SetFloat32s(0, []float32{1, 0, 0, 1}) // identity
	w.SetFloat32s(0, []float32{5, 6, 7, 8})
	if err := p.Launch(s, PrefillGemm, []cuda.Value{
		cuda.PtrValue(dstA), cuda.PtrValue(srcA), cuda.PtrValue(wA),
		cuda.U32Value(m), cuda.U32Value(n), cuda.U32Value(k),
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.Float32s(0, m*n)
	want := []float32{5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefill gemm = %v, want %v", got, want)
		}
	}
	// Unlike the decode-shaped cuBLAS variants, no workspace is needed:
	// prefill runs before any cuBLAS initialization.
}

func TestFetchErrors(t *testing.T) {
	p := newProc(t, 10)
	s := p.NewStream()
	// Unmapped pointer.
	err := p.Launch(s, ElemCopy, []cuda.Value{
		cuda.PtrValue(0xdead0000), cuda.PtrValue(0xdead0000), cuda.U32Value(1),
	})
	if err == nil || !strings.Contains(err.Error(), "illegal memory access") {
		t.Fatalf("unmapped pointer = %v", err)
	}
	// Misaligned interior pointer.
	a, _ := alloc(t, p, 64)
	err = p.Launch(s, ElemCopy, []cuda.Value{
		cuda.PtrValue(a + 2), cuda.PtrValue(a), cuda.U32Value(1),
	})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("misaligned pointer = %v", err)
	}
}

func TestTrafficAndFlopsModels(t *testing.T) {
	rt := NewRuntime()
	gemm, _ := rt.Impl(GemmKernelName(8))
	args := []cuda.Value{
		cuda.PtrValue(0), cuda.PtrValue(0), cuda.PtrValue(0),
		cuda.PtrValue(0), cuda.PtrValue(0),
		cuda.U32Value(8), cuda.U32Value(128), cuda.U32Value(64),
	}
	if got, want := gemm.Traffic(args), uint64((8*64+64*128+8*128)*2); got != want {
		t.Fatalf("gemm traffic = %d, want %d", got, want)
	}
	if got, want := gemm.Flops(args), float64(2*8*128*64); got != want {
		t.Fatalf("gemm flops = %v, want %v", got, want)
	}
	attn, _ := rt.Impl(PagedAttn)
	aArgs := []cuda.Value{
		cuda.PtrValue(0), cuda.PtrValue(0), cuda.PtrValue(0), cuda.PtrValue(0), cuda.PtrValue(0),
		cuda.U32Value(4), cuda.U32Value(256), cuda.U32Value(8),
	}
	if attn.Traffic(aArgs) == 0 {
		t.Fatal("attention traffic model returned zero")
	}
	head, _ := rt.Impl(LMHeadGemm)
	hArgs := []cuda.Value{
		cuda.PtrValue(0), cuda.PtrValue(0), cuda.PtrValue(0),
		cuda.U32Value(2), cuda.U32Value(32000), cuda.U32Value(4096),
	}
	if head.Flops(hArgs) != float64(2*2*32000*4096) {
		t.Fatalf("lm head flops = %v", head.Flops(hArgs))
	}
	// Every elementwise kernel reports nonzero traffic for nonzero work.
	for _, name := range []string{RMSNorm, RopeCache, ResidualAdd, SiluMul, BiasAdd, ElemCopy, EmbedLookup, SampleArgmax} {
		impl, ok := rt.Impl(name)
		if !ok || impl.Traffic == nil {
			t.Fatalf("%s missing traffic model", name)
		}
	}
}
