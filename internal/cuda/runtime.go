package cuda

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/dl"
	"github.com/medusa-repro/medusa/internal/gpu"
)

// KernelFunc is the functional implementation of a kernel: it reads and
// writes simulated device memory through its pointer arguments. It runs
// only when the device is in functional mode.
type KernelFunc func(dev *gpu.Device, args []Value) error

// KernelImpl describes one installed kernel: its mangled name, where it
// lives (library and module), whether its symbol is exported, its
// parameter schema, and its behaviour. Func, Traffic and Flops must not
// retain their args slice: launches pass buffers they reuse for the
// next kernel.
type KernelImpl struct {
	// Name is the kernel's mangled name, globally unique.
	Name string
	// Library is the shared object that carries the kernel.
	Library string
	// Module is the CUDA module (cubin) inside the library. The driver
	// loads kernels at module granularity.
	Module string
	// Exported reports whether the symbol is dlsym-visible. Simulated
	// cuBLAS kernels are hidden.
	Exported bool
	// Params is the declared parameter schema. Captured graph nodes do
	// NOT carry this information; it is private to execution.
	Params []ParamKind
	// Func is the functional implementation; may be nil for cost-only
	// kernels.
	Func KernelFunc
	// Traffic optionally estimates bytes of memory traffic for the cost
	// model, given the decoded arguments.
	Traffic func(args []Value) uint64
	// Flops optionally estimates floating-point work for the cost
	// model, given the decoded arguments. Execution time follows a
	// roofline: max of traffic time, compute time, and a small floor.
	Flops func(args []Value) float64
}

// Runtime is the installed software environment shared by all simulated
// processes: the set of libraries/symbols visible to the dynamic linker
// and the kernel implementations behind them. It is immutable once
// populated (packages register kernels at setup time).
type Runtime struct {
	reg   *dl.Registry
	impls map[string]*KernelImpl
}

// NewRuntime returns an empty software environment.
func NewRuntime() *Runtime {
	return &Runtime{reg: dl.NewRegistry(), impls: make(map[string]*KernelImpl)}
}

// Register installs a kernel implementation and its linker symbol.
func (rt *Runtime) Register(impl KernelImpl) error {
	if impl.Name == "" || impl.Library == "" || impl.Module == "" {
		return fmt.Errorf("cuda: kernel registration missing name/library/module: %+v", impl)
	}
	if _, dup := rt.impls[impl.Name]; dup {
		return fmt.Errorf("cuda: duplicate kernel %q", impl.Name)
	}
	if _, err := rt.reg.AddSymbol(impl.Library, impl.Module, impl.Name, impl.Exported); err != nil {
		return err
	}
	cp := impl
	rt.impls[impl.Name] = &cp
	return nil
}

// MustRegister is Register that panics on error; for package setup.
func (rt *Runtime) MustRegister(impl KernelImpl) {
	if err := rt.Register(impl); err != nil {
		panic(err)
	}
}

// Impl returns the installed kernel implementation by mangled name.
func (rt *Runtime) Impl(name string) (*KernelImpl, bool) {
	k, ok := rt.impls[name]
	return k, ok
}

// DL exposes the linker registry (the "filesystem" of shared objects).
func (rt *Runtime) DL() *dl.Registry { return rt.reg }

// KernelCount reports how many kernels are installed.
func (rt *Runtime) KernelCount() int { return len(rt.impls) }
