package cuda

import (
	"errors"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// captureVecPipeline captures vec_scale then vec_add on a fresh process
// and instantiates the graph.
func captureVecPipeline(t *testing.T, mode gpu.ExecMode) (*Stream, *GraphExec) {
	t.Helper()
	p := NewProcess(testRuntime(t), vclock.New(), Config{Seed: 21, Mode: mode})
	s := p.NewStream()
	src, dst := mustMalloc(t, p, 16), mustMalloc(t, p, 16)
	scale := []Value{PtrValue(dst), PtrValue(src), F32Value(2), U32Value(4)}
	add := []Value{PtrValue(dst), PtrValue(dst), PtrValue(src), U32Value(4)}
	for _, capture := range []bool{false, true} { // warm-up loads the module
		if capture {
			if err := s.BeginCapture(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Launch(s, "vec_scale_f32", scale); err != nil {
			t.Fatal(err)
		}
		if err := p.Launch(s, "vec_add_f32", add); err != nil {
			t.Fatal(err)
		}
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	ge, err := g.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	return s, ge
}

// TestWarmGraphLaunchAllocatesNothing: a graph launch decodes every
// node's parameters into the process's reused buffer, so once that
// buffer has grown a launch allocates nothing.
func TestWarmGraphLaunchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	s, ge := captureVecPipeline(t, gpu.CostOnly)
	launch := func() {
		if err := ge.Launch(s); err != nil {
			t.Fatal(err)
		}
	}
	launch()
	if n := testing.AllocsPerRun(100, launch); n != 0 {
		t.Fatalf("warm GraphExec.Launch allocated %v times, want 0", n)
	}
}

// TestGraphLaunchMisSizedParam: a node whose parameter image no longer
// matches the kernel's schema fails the launch with a
// ParamMismatchError naming the parameter and both sizes.
func TestGraphLaunchMisSizedParam(t *testing.T) {
	s, ge := captureVecPipeline(t, gpu.Functional)
	node := ge.g.nodes[ge.topo[1]]
	node.Params[2].Size = 4
	err := ge.Launch(s)
	var pm *ParamMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("Launch with a mis-sized param = %v, want ParamMismatchError", err)
	}
	want := `cuda: kernel "vec_add_f32" parameter mismatch: param 2: cuda: param image of 4 bytes, kind ptr wants 8`
	if err.Error() != want {
		t.Fatalf("error text\n got %q\nwant %q", err.Error(), want)
	}
}

// TestBadParamWidthsFailInstantiate: a hand-built node whose param
// claims an image of 0, 3 or 9 bytes, or a valid width that is not the
// kernel's, fails Instantiate with an error naming the node and param
// (Validate already rejects the 9-byte image), and decoding its params
// fails without slicing past the inline image.
func TestBadParamWidthsFailInstantiate(t *testing.T) {
	_, ge := captureVecPipeline(t, gpu.CostOnly)
	p, base := ge.p, ge.Graph().Nodes()[0] // vec_scale_f32(ptr, ptr, f32, u32)
	k, ok := p.KernelByAddr(base.KernelAddr)
	if !ok {
		t.Fatal("captured kernel not loaded")
	}
	cases := []struct {
		name  string
		param int
		size  uint8
		want  string
	}{
		{"empty image", 3, 0, "node 0 param 3 is 0 bytes, kernel wants 4"},
		{"3-byte image", 2, 3, "node 0 param 2 is 3 bytes, kernel wants 4"},
		{"9-byte image", 0, 9, "node 0 param 0: 9-byte image exceeds limit 8"},
		{"scalar width for a pointer", 1, 4, "node 0 param 1 is 4 bytes, kernel wants 8"},
		{"pointer width for a scalar", 3, 8, "node 0 param 3 is 8 bytes, kernel wants 4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := base.Clone()
			n.Params[c.param].Size = c.size
			g := NewGraph([]*Node{n})
			if err := g.Validate(); (err != nil) != (c.size > 8) {
				t.Fatalf("Validate = %v", err)
			}
			if _, err := g.Instantiate(p); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Instantiate error = %v, want it to contain %q", err, c.want)
			}
			if _, err := DecodeArgs(nil, k.impl.Params, n.Params); err == nil {
				t.Fatal("DecodeArgs accepted the mis-sized param")
			}
		})
	}
}
