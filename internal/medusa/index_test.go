package medusa

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// TestIndexMatchesLinearOracles is the property test: on randomized
// alloc/free traces with heavy address reuse (freed ranges carved into
// smaller re-allocations, the allocator behaviour behind Figure 6), the
// indexed matcher must return identical (allocIndex, offset, ok) to the
// linear backwardMatch/firstMatch oracles for every probe address and
// event position.
func TestIndexMatchesLinearOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const base = uint64(0x7f40_0000_0000)
	for trial := 0; trial < 25; trial++ {
		rec := NewRecorder()
		hooks := rec.Hooks()
		type arange struct{ addr, size uint64 }
		type liveAlloc struct {
			idx        int
			addr, size uint64
		}
		var vacant []arange
		var live []liveAlloc
		next := base
		allocIdx := 0
		nEvents := 300 + rng.Intn(500)
		for len(rec.events) < nEvents {
			if len(live) > 0 && rng.Float64() < 0.4 {
				i := rng.Intn(len(live))
				a := live[i]
				hooks.OnAlloc(cuda.AllocEvent{Free: true, AllocIndex: a.idx, Addr: a.addr})
				vacant = append(vacant, arange{a.addr, a.size})
				live = append(live[:i], live[i+1:]...)
				continue
			}
			var addr, size uint64
			if len(vacant) > 0 && rng.Float64() < 0.6 {
				// Reuse: carve a prefix of a vacant range — same base
				// address, possibly smaller size, remainder stays
				// vacant. Live ranges stay disjoint, as with a real
				// allocator.
				vi := rng.Intn(len(vacant))
				v := vacant[vi]
				size = 8 * uint64(1+rng.Intn(int(v.size/8)))
				addr = v.addr
				if size < v.size {
					vacant[vi] = arange{v.addr + size, v.size - size}
				} else {
					vacant = append(vacant[:vi], vacant[vi+1:]...)
				}
			} else {
				size = 8 * uint64(1+rng.Intn(64))
				addr = next
				next += size
				if rng.Float64() < 0.3 {
					next += 8 * uint64(rng.Intn(8)) // leave a gap
				}
			}
			hooks.OnAlloc(cuda.AllocEvent{AllocIndex: allocIdx, Size: size, Addr: addr})
			live = append(live, liveAlloc{allocIdx, addr, size})
			allocIdx++
		}

		ix := rec.Index()
		for q := 0; q < 1500; q++ {
			var p uint64
			if rng.Float64() < 0.8 {
				ev := rec.events[rng.Intn(len(rec.events))]
				if ev.free {
					continue
				}
				p = ev.addr + uint64(rng.Intn(int(ev.size)))
			} else {
				p = base + uint64(rng.Intn(1<<16))
			}
			pos := rng.Intn(len(rec.events) + 1)

			gi, gOff, gOK := ix.BackwardMatch(pos, p)
			wi, wOff, wOK := rec.backwardMatch(pos, p)
			if gi != wi || gOff != wOff || gOK != wOK {
				t.Fatalf("trial %d: BackwardMatch(%d, %#x) = (%d,%d,%v), oracle (%d,%d,%v)",
					trial, pos, p, gi, gOff, gOK, wi, wOff, wOK)
			}
			fi, fOff, fOK := ix.FirstMatch(p)
			li, lOff, lOK := rec.firstMatch(p)
			if fi != li || fOff != lOff || fOK != lOK {
				t.Fatalf("trial %d: FirstMatch(%#x) = (%d,%d,%v), oracle (%d,%d,%v)",
					trial, p, fi, fOff, fOK, li, lOff, lOK)
			}
		}
	}
}

// TestIndexResolvesAddressReuse crafts the Figure 6 scenario: a freed
// buffer's address handed to a later allocation. Backward matching from
// the launch position must resolve to the later allocation; the naive
// first-match strawman picks the earlier, freed one.
func TestIndexResolvesAddressReuse(t *testing.T) {
	const x = uint64(0x7f50_0000_0000)
	rec := NewRecorder()
	hooks := rec.Hooks()
	hooks.OnAlloc(cuda.AllocEvent{AllocIndex: 0, Size: 64, Addr: x})
	hooks.OnAlloc(cuda.AllocEvent{Free: true, AllocIndex: 0, Addr: x})
	hooks.OnAlloc(cuda.AllocEvent{AllocIndex: 1, Size: 64, Addr: x}) // full reuse
	hooks.OnAlloc(cuda.AllocEvent{Free: true, AllocIndex: 1, Addr: x})
	hooks.OnAlloc(cuda.AllocEvent{AllocIndex: 2, Size: 16, Addr: x + 8}) // partial, interior reuse
	ix := rec.Index()

	// A launch after event 3 referencing x+8 sees allocation 1.
	if idx, off, ok := ix.BackwardMatch(3, x+8); !ok || idx != 1 || off != 8 {
		t.Fatalf("BackwardMatch(3) = (%d,%d,%v), want (1,8,true)", idx, off, ok)
	}
	// A launch after event 5 referencing x+8 sees allocation 2 (offset 0).
	if idx, off, ok := ix.BackwardMatch(5, x+8); !ok || idx != 2 || off != 0 {
		t.Fatalf("BackwardMatch(5) = (%d,%d,%v), want (2,0,true)", idx, off, ok)
	}
	// x+4 is covered only by the 64-byte allocations, not the interior one.
	if idx, _, ok := ix.BackwardMatch(5, x+4); !ok || idx != 1 {
		t.Fatalf("BackwardMatch(5, x+4) = (%d,_,%v), want (1,true)", idx, ok)
	}
	// The strawman returns the first, long-freed allocation (the false
	// positive validation forwarding exists to catch).
	if idx, _, ok := ix.FirstMatch(x + 8); !ok || idx != 0 {
		t.Fatalf("FirstMatch = (%d,_,%v), want (0,true)", idx, ok)
	}
}

// multiGraphFixture records an offline run with several captured graphs
// and an address-reuse probe between batches, mirroring the engine's
// capture loop closely enough to exercise the parallel analysis merge.
func multiGraphFixture(t *testing.T, batches []int) (*cuda.Process, *Recorder) {
	t.Helper()
	rt := toyRuntime()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 7, Mode: gpu.CostOnly})
	rec := NewRecorder()
	p.SetHooks(rec.Hooks())
	s := p.NewStream()
	src := mustMalloc(t, p, 1<<12)
	dst := mustMalloc(t, p, 1<<12)
	rec.MarkCaptureStageBegin()
	args := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(src), cuda.F32Value(2), cuda.U32Value(64)}
	for _, b := range batches {
		// Warm-up launch plus the 4-byte probe whose freed address the
		// next iteration's workspace reuses (Figure 6 aliasing).
		if err := p.Launch(s, "toy_scale", args); err != nil {
			t.Fatal(err)
		}
		probe := mustMalloc(t, p, 4)
		if err := p.Free(probe); err != nil {
			t.Fatal(err)
		}
		ws := mustMalloc(t, p, 4)
		wargs := []cuda.Value{cuda.PtrValue(dst), cuda.PtrValue(ws), cuda.F32Value(1), cuda.U32Value(1)}
		if err := s.BeginCapture(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b*8; i++ {
			a := args
			if i%3 == 0 {
				a = wargs
			}
			if err := p.Launch(s, "toy_scale", a); err != nil {
				t.Fatal(err)
			}
		}
		g, err := s.EndCapture()
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.AttachGraph(b, g); err != nil {
			t.Fatal(err)
		}
	}
	rec.MarkCaptureStageEnd()
	rec.RecordKV(KVRecord{NumBlocks: 1, BlockBytes: 1})
	return p, rec
}

// TestAnalyzeParallelDeterminism asserts the determinism invariant the
// artifact store relies on: the encoded bytes are bit-identical at any
// worker count, and the indexed matcher changes nothing vs. the linear
// reference implementation.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	p, rec := multiGraphFixture(t, []int{1, 2, 4, 8, 16, 32})
	encode := func(opts AnalyzeOptions) []byte {
		t.Helper()
		opts.ModelName = "det"
		opts.SkipContents = true
		art, err := Analyze(rec, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := encode(AnalyzeOptions{Parallelism: 1})
	for _, workers := range []int{2, 8} {
		if got := encode(AnalyzeOptions{Parallelism: workers}); !bytes.Equal(got, want) {
			t.Fatalf("artifact bytes differ between 1 and %d analysis workers", workers)
		}
	}
	if got := encode(AnalyzeOptions{LinearMatch: true, Parallelism: 1}); !bytes.Equal(got, want) {
		t.Fatal("indexed analysis produced different bytes than the linear reference")
	}
	if got := encode(AnalyzeOptions{LinearMatch: true, Parallelism: 8}); !bytes.Equal(got, want) {
		t.Fatal("parallel linear analysis produced different bytes")
	}
	// The ablation strawman must also be worker-count- and
	// index-independent (it differs from backward matching in content,
	// not determinism).
	naiveWant := encode(AnalyzeOptions{NaiveFirstMatch: true, Parallelism: 1})
	if got := encode(AnalyzeOptions{NaiveFirstMatch: true, Parallelism: 8}); !bytes.Equal(got, naiveWant) {
		t.Fatal("naive first-match analysis not deterministic across workers")
	}
	if got := encode(AnalyzeOptions{NaiveFirstMatch: true, LinearMatch: true, Parallelism: 1}); !bytes.Equal(got, naiveWant) {
		t.Fatal("indexed first-match differs from linear first-match")
	}
}
