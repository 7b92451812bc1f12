package cuda

import (
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// costRuntime installs kernels with controlled Traffic/Flops models.
func costRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt := NewRuntime()
	rt.MustRegister(KernelImpl{
		Name: "mem_bound", Library: "libc.so", Module: "m", Exported: true,
		Params:  []ParamKind{U32},
		Traffic: func(a []Value) uint64 { return uint64(a[0].U32()) },
	})
	rt.MustRegister(KernelImpl{
		Name: "compute_bound", Library: "libc.so", Module: "m", Exported: true,
		Params: []ParamKind{U32},
		Flops:  func(a []Value) float64 { return float64(a[0].U32()) * 1e9 },
	})
	rt.MustRegister(KernelImpl{
		Name: "tiny", Library: "libc.so", Module: "m", Exported: true,
		Params: []ParamKind{},
	})
	return rt
}

func TestRooflineMemoryBound(t *testing.T) {
	clk := vclock.New()
	p := NewProcess(costRuntime(t), clk, Config{Seed: 1, Mode: gpu.CostOnly})
	s := p.NewStream()
	// Load module (and absorb that cost) with a tiny launch.
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	// 1555 GB of traffic ⇒ exactly 1s at HBM bandwidth.
	before := clk.Now()
	if err := p.Launch(s, "mem_bound", []Value{U32Value(1_555_000_000)}); err != nil {
		t.Fatal(err)
	}
	exec := clk.Now() - before - p.Config().LaunchOverhead
	if exec < 990*time.Microsecond || exec > 1010*time.Microsecond {
		t.Fatalf("mem-bound exec = %v, want ≈1ms for 1.555GB", exec)
	}
}

func TestRooflineComputeBound(t *testing.T) {
	clk := vclock.New()
	p := NewProcess(costRuntime(t), clk, Config{Seed: 2, Mode: gpu.CostOnly})
	s := p.NewStream()
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	// 156 GFLOP at 50% of 312 TFLOPS ⇒ 1ms.
	before := clk.Now()
	if err := p.Launch(s, "compute_bound", []Value{U32Value(156)}); err != nil {
		t.Fatal(err)
	}
	exec := clk.Now() - before - p.Config().LaunchOverhead
	if exec < 990*time.Microsecond || exec > 1010*time.Microsecond {
		t.Fatalf("compute-bound exec = %v, want ≈1ms", exec)
	}
}

func TestRooflineFloor(t *testing.T) {
	clk := vclock.New()
	p := NewProcess(costRuntime(t), clk, Config{Seed: 3, Mode: gpu.CostOnly})
	s := p.NewStream()
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	got := clk.Now() - before
	want := p.Config().LaunchOverhead + 2*time.Microsecond
	if got != want {
		t.Fatalf("floor launch = %v, want %v", got, want)
	}
}

func TestModuleLoadChargedOnce(t *testing.T) {
	clk := vclock.New()
	p := NewProcess(costRuntime(t), clk, Config{Seed: 4, Mode: gpu.CostOnly})
	s := p.NewStream()
	first := clk.Span(func() {
		if err := p.Launch(s, "tiny", nil); err != nil {
			t.Fatal(err)
		}
	})
	second := clk.Span(func() {
		if err := p.Launch(s, "tiny", nil); err != nil {
			t.Fatal(err)
		}
	})
	// First launch pays dlopen + module load; second does not.
	if first-second < p.Config().ModuleLoadCost {
		t.Fatalf("module load not charged on first launch: first %v, second %v", first, second)
	}
}

func TestWaitUnrecordedEvent(t *testing.T) {
	p := NewProcess(costRuntime(t), vclock.New(), Config{Seed: 6, Mode: gpu.CostOnly})
	s := p.NewStream()
	ev := p.NewEvent()
	if err := s.WaitEvent(ev); err == nil {
		t.Fatal("wait on unrecorded event succeeded")
	}
}

func TestGraphLaunchDuringCaptureInvalidates(t *testing.T) {
	p := NewProcess(costRuntime(t), vclock.New(), Config{Seed: 7, Mode: gpu.CostOnly})
	s := p.NewStream()
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	ge, err := g.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := ge.Launch(s); err == nil {
		t.Fatal("graph launch during capture succeeded")
	}
	if _, err := s.EndCapture(); err == nil {
		t.Fatal("capture survived a graph launch")
	}
}

func TestStreamSynchronizeDuringCapture(t *testing.T) {
	p := NewProcess(costRuntime(t), vclock.New(), Config{Seed: 8, Mode: gpu.CostOnly})
	s := p.NewStream()
	if err := s.Synchronize(); err != nil {
		t.Fatalf("sync outside capture = %v", err)
	}
	if err := p.Launch(s, "tiny", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if err := s.Synchronize(); err == nil {
		t.Fatal("stream sync during capture succeeded")
	}
	if _, err := s.EndCapture(); err == nil {
		t.Fatal("capture survived stream sync")
	}
}
