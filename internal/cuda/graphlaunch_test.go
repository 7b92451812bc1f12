package cuda

import (
	"errors"
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
	node.Params[2] = node.Params[2][:4]
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
