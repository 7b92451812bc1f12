package cuda

import (
	"fmt"
	"sort"
	"time"

	"github.com/medusa-repro/medusa/internal/dl"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// KernelCostFunc models the GPU execution time of one kernel given its
// decoded arguments. The engine installs a model-specific cost function;
// the default charges a small floor per kernel ("kernel execution on the
// GPU can be as fast as microseconds", §1).
type KernelCostFunc func(impl *KernelImpl, args []Value) time.Duration

// Config tunes per-process driver overheads. Zero values select the
// defaults below, which are calibrated for the paper's A100 testbed.
type Config struct {
	// Seed randomizes the process address space: allocator base and
	// library load bases. Every simulated cold start must use a fresh
	// seed.
	Seed int64
	// Mode selects functional or cost-only kernel execution.
	Mode gpu.ExecMode
	// Device optionally overrides the GPU configuration (defaults to an
	// A100-40GB).
	Device *gpu.DeviceConfig

	// LaunchOverhead is the CPU cost of launching one kernel
	// individually (default 5µs).
	LaunchOverhead time.Duration
	// CaptureOverhead is the CPU cost of recording one kernel launch
	// into an active capture (default 3µs).
	CaptureOverhead time.Duration
	// GraphLaunchOverhead is the CPU cost of launching a whole graph
	// (default 30µs) — the single submission that amortizes per-kernel
	// launches.
	GraphLaunchOverhead time.Duration
	// InstantiateNodeCost is the per-node cost of cudaGraphInstantiate
	// (default 35µs).
	InstantiateNodeCost time.Duration
	// ModuleLoadCost is the cost of lazily loading one CUDA module,
	// including its implicit synchronization (default 1ms).
	ModuleLoadCost time.Duration
	// DlopenCost is the cost of mapping one shared library (default 4ms).
	DlopenCost time.Duration
	// MallocCost is the CPU cost of one cudaMalloc/cudaFree (default 1.5µs).
	MallocCost time.Duration
	// HtoDBandwidth is host-to-device copy bandwidth in bytes/s
	// (default 25 GB/s over NVLink-attached PCIe staging).
	HtoDBandwidth float64
	// MemcpyLatency is the fixed per-copy submission latency
	// (default 5µs).
	MemcpyLatency time.Duration
	// KernelCost models per-kernel GPU time; nil selects a 2µs floor
	// plus memory traffic at HBM bandwidth when Traffic is available.
	// It must not retain args: graph launches reuse their storage for
	// the next node.
	KernelCost KernelCostFunc
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&c.LaunchOverhead, 5*time.Microsecond)
	def(&c.CaptureOverhead, 3*time.Microsecond)
	def(&c.GraphLaunchOverhead, 30*time.Microsecond)
	def(&c.InstantiateNodeCost, 35*time.Microsecond)
	def(&c.ModuleLoadCost, time.Millisecond)
	def(&c.DlopenCost, 4*time.Millisecond)
	def(&c.MallocCost, 1500*time.Nanosecond)
	def(&c.MemcpyLatency, 5*time.Microsecond)
	if c.HtoDBandwidth == 0 {
		c.HtoDBandwidth = 25e9
	}
	return c
}

// AllocEvent is one entry of a process's buffer (de)allocation sequence,
// as observed by trace hooks. Frees are identified by the *allocation
// index* they release, because addresses are not stable across cold
// starts — this is precisely the indirection the paper's indirect index
// pointers rely on.
type AllocEvent struct {
	// Free reports whether this event releases a prior allocation.
	Free bool
	// AllocIndex is the ordinal of the allocation (0-based, counting
	// allocations only). For Free events it names the allocation being
	// released.
	AllocIndex int
	// Size is the allocation size in bytes (zero for frees).
	Size uint64
	// Addr is the address returned (or released).
	Addr uint64
}

// LaunchRecord describes one kernel launch as seen by trace hooks.
type LaunchRecord struct {
	KernelName string
	KernelAddr uint64
	// Params are a captured launch's parameters: the very slice of the
	// graph node the capture recorded, encoded once. Hooks must treat
	// it as read-only. An eager launch is never encoded and carries
	// none. Offline analysis works from the images (and their sizes),
	// never from typed values.
	Params []Param
	// Captured reports whether the launch was recorded into an active
	// capture; NodeID is its node id when so, and -1 otherwise.
	Captured bool
	NodeID   int
}

// Hooks observe process activity. Medusa's offline capturing stage
// installs them to record the allocation sequence and kernel launches.
type Hooks struct {
	OnAlloc  func(ev AllocEvent)
	OnLaunch func(rec LaunchRecord)
}

// Process is one simulated OS process with a CUDA context: its own
// randomized address space, device allocator state, loaded libraries and
// modules, streams, and captures. A serverless cold start creates a
// fresh Process.
type Process struct {
	rt     *Runtime
	cfg    Config
	clock  *vclock.Clock
	dev    *gpu.Device
	linker *dl.Linker

	byAddr  map[uint64]*Kernel
	byName  map[string]*Kernel
	modules map[string]*LoadedModule // "lib/module" -> loaded

	streams     []*Stream
	capture     *captureState
	lastCapture captureSize // sizes the next capture's slabs
	hooks       Hooks
	allocSeq    int            // next allocation index
	liveAlloc   map[uint64]int // live addr -> allocation index
	// graphArgs holds one graph node's decoded arguments at a time
	// during GraphExec.Launch, reused across nodes and launches.
	graphArgs []Value
}

// Kernel is a loaded kernel function in one process: the pair of a
// process-specific address and the installed implementation.
type Kernel struct {
	impl *KernelImpl
	addr uint64
}

// Name returns the kernel's mangled name (cuFuncGetName).
func (k *Kernel) Name() string { return k.impl.Name }

// Addr returns the kernel's process-specific address.
func (k *Kernel) Addr() uint64 { return k.addr }

// LoadedModule is a CUDA module mapped into the process. Loading any
// kernel of a module loads the whole module — the property
// triggering-kernels exploit (§5).
type LoadedModule struct {
	Library string
	Name    string
	kernels []*Kernel
}

// Kernels returns all kernels of the module, in image order
// (cuModuleEnumerateFunctions).
func (m *LoadedModule) Kernels() []*Kernel { return m.kernels }

// NewProcess starts a simulated process against the installed runtime.
func NewProcess(rt *Runtime, clock *vclock.Clock, cfg Config) *Process {
	cfg = cfg.withDefaults()
	if clock == nil {
		clock = vclock.New()
	}
	devCfg := gpu.A100(cfg.Seed, cfg.Mode)
	if cfg.Device != nil {
		devCfg = *cfg.Device
		devCfg.Seed = cfg.Seed
		devCfg.Mode = cfg.Mode
	}
	return &Process{
		rt:        rt,
		cfg:       cfg,
		clock:     clock,
		dev:       gpu.NewDevice(devCfg),
		linker:    dl.NewLinker(rt.DL(), cfg.Seed),
		byAddr:    make(map[uint64]*Kernel),
		byName:    make(map[string]*Kernel),
		modules:   make(map[string]*LoadedModule),
		liveAlloc: make(map[uint64]int),
	}
}

// Device returns the process's GPU.
func (p *Process) Device() *gpu.Device { return p.dev }

// Clock returns the virtual clock.
func (p *Process) Clock() *vclock.Clock { return p.clock }

// Linker returns the process's dynamic linker.
func (p *Process) Linker() *dl.Linker { return p.linker }

// Runtime returns the installed software environment.
func (p *Process) Runtime() *Runtime { return p.rt }

// Config returns the effective (defaulted) configuration.
func (p *Process) Config() Config { return p.cfg }

// SetHooks installs trace hooks. Passing zero-value Hooks removes them.
func (p *Process) SetHooks(h Hooks) { p.hooks = h }

// Malloc allocates device memory (cudaMalloc).
func (p *Process) Malloc(size uint64) (uint64, error) {
	p.clock.Advance(p.cfg.MallocCost)
	addr, err := p.dev.Malloc(size)
	if err != nil {
		return 0, err
	}
	idx := p.allocSeq
	p.allocSeq++
	p.liveAlloc[addr] = idx
	if p.hooks.OnAlloc != nil {
		p.hooks.OnAlloc(AllocEvent{AllocIndex: idx, Size: size, Addr: addr})
	}
	return addr, nil
}

// Free releases device memory (cudaFree).
func (p *Process) Free(addr uint64) error {
	p.clock.Advance(p.cfg.MallocCost)
	idx, live := p.liveAlloc[addr]
	if err := p.dev.Free(addr); err != nil {
		return err
	}
	delete(p.liveAlloc, addr)
	if p.hooks.OnAlloc != nil && live {
		p.hooks.OnAlloc(AllocEvent{Free: true, AllocIndex: idx, Addr: addr})
	}
	return nil
}

// AllocationCount reports how many allocations the process has made.
func (p *Process) AllocationCount() int { return p.allocSeq }

// MemcpyHtoD copies host bytes to device memory, charging transfer time.
func (p *Process) MemcpyHtoD(addr uint64, data []byte) error {
	p.chargeHtoD(uint64(len(data)))
	b, off, ok := p.dev.FindBuffer(addr)
	if !ok {
		return fmt.Errorf("cuda: MemcpyHtoD to unmapped address %#x", addr)
	}
	if !p.dev.Functional() {
		return nil // cost-only: transfer time charged, contents dropped
	}
	return b.WriteAt(off, data)
}

// ChargeHtoD charges the transfer time of nbytes host-to-device without
// moving data; used by cost-only weight loading.
func (p *Process) ChargeHtoD(nbytes uint64) { p.chargeHtoD(nbytes) }

func (p *Process) chargeHtoD(nbytes uint64) {
	p.clock.Advance(p.cfg.MemcpyLatency +
		time.Duration(float64(nbytes)/p.cfg.HtoDBandwidth*float64(time.Second)))
}

// DeviceSynchronize waits for the device. During an active capture this
// is a prohibited operation and invalidates the capture, mirroring
// cudaErrorStreamCaptureUnsupported.
//
//medusalint:allow testonly(cudaDeviceSynchronize: capture must fail on it, and capturesync flags calls to it)
func (p *Process) DeviceSynchronize() error {
	if p.capture != nil {
		err := &CaptureInvalidatedError{Op: "cudaDeviceSynchronize"}
		p.capture.invalidated = err
		return err
	}
	return nil
}

// moduleKey identifies a module within the process.
func moduleKey(lib, mod string) string { return lib + "/" + mod }

// ensureModuleLoaded lazily loads the module containing impl, assigning
// process-specific addresses to every kernel in it. Module loading
// performs an implicit synchronization: during capture it is fatal.
// This is why warm-up forwarding must precede capture.
func (p *Process) ensureModuleLoaded(impl *KernelImpl) (*Kernel, error) {
	if k, ok := p.byName[impl.Name]; ok {
		return k, nil
	}
	if p.capture != nil {
		err := &CaptureInvalidatedError{Op: "lazy module load of " + moduleKey(impl.Library, impl.Module)}
		p.capture.invalidated = err
		return nil, err
	}
	firstOfLib := true
	for key := range p.modules {
		if len(key) > len(impl.Library) && key[:len(impl.Library)] == impl.Library && key[len(impl.Library)] == '/' {
			firstOfLib = false
			break
		}
	}
	ll, err := p.linker.Dlopen(impl.Library)
	if err != nil {
		return nil, err
	}
	if firstOfLib {
		p.clock.Advance(p.cfg.DlopenCost)
	}
	syms, ok := ll.Lib.Module(impl.Module)
	if !ok {
		return nil, fmt.Errorf("cuda: module %q missing from %q", impl.Module, impl.Library)
	}
	p.clock.Advance(p.cfg.ModuleLoadCost)
	lm := &LoadedModule{Library: impl.Library, Name: impl.Module}
	for _, s := range syms {
		si, ok := p.rt.Impl(s.Name)
		if !ok {
			return nil, fmt.Errorf("cuda: symbol %q has no installed implementation", s.Name)
		}
		k := &Kernel{impl: si, addr: ll.AddrOf(s)}
		lm.kernels = append(lm.kernels, k)
		p.byAddr[k.addr] = k
		p.byName[k.Name()] = k
	}
	p.modules[moduleKey(impl.Library, impl.Module)] = lm
	return p.byName[impl.Name], nil
}

// KernelByName returns the loaded kernel with the given mangled name.
func (p *Process) KernelByName(name string) (*Kernel, bool) {
	k, ok := p.byName[name]
	return k, ok
}

// KernelByAddr returns the loaded kernel at the given address.
func (p *Process) KernelByAddr(addr uint64) (*Kernel, bool) {
	k, ok := p.byAddr[addr]
	return k, ok
}

// GetFuncBySymbol turns a dlsym handle into a loaded kernel
// (cudaGetFuncBySymbol), loading its module as a side effect.
func (p *Process) GetFuncBySymbol(h dl.SymbolHandle) (*Kernel, error) {
	impl, ok := p.rt.Impl(h.Name)
	if !ok {
		return nil, &UnknownKernelError{Name: h.Name}
	}
	return p.ensureModuleLoaded(impl)
}

// LoadedModules returns the process's loaded modules, sorted by key.
func (p *Process) LoadedModules() []*LoadedModule {
	keys := make([]string, 0, len(p.modules))
	for k := range p.modules {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*LoadedModule, len(keys))
	for i, k := range keys {
		out[i] = p.modules[k]
	}
	return out
}

// ModuleEnumerateFunctions returns all kernels of a loaded module
// (cuModuleEnumerateFunctions).
func (p *Process) ModuleEnumerateFunctions(m *LoadedModule) []*Kernel {
	return m.Kernels()
}

// kernelCost models one kernel's GPU execution time with a roofline:
// the kernel takes as long as the slower of its memory traffic at HBM
// bandwidth and its FLOPs at half of peak, with a 2µs floor ("kernel
// execution on the GPU can be as fast as microseconds", §1).
func (p *Process) kernelCost(impl *KernelImpl, args []Value) time.Duration {
	if p.cfg.KernelCost != nil {
		return p.cfg.KernelCost(impl, args)
	}
	t := 2 * time.Microsecond
	if impl.Traffic != nil {
		bw := p.dev.Config().MemBandwidth
		if mt := time.Duration(float64(impl.Traffic(args)) / bw * float64(time.Second)); mt > t {
			t = mt
		}
	}
	if impl.Flops != nil {
		peak := 0.5 * p.dev.Config().PeakFLOPS
		if ct := time.Duration(impl.Flops(args) / peak * float64(time.Second)); ct > t {
			t = ct
		}
	}
	return t
}

// NewStream creates a stream.
func (p *Process) NewStream() *Stream {
	s := &Stream{p: p, id: len(p.streams)}
	p.streams = append(p.streams, s)
	if c := p.capture; c != nil {
		c.last, c.pending = append(c.last, 0), append(c.pending, nil)
	}
	return s
}

// Launch launches a kernel by mangled name on a stream
// (cudaLaunchKernel). Outside capture the kernel executes (functionally
// when the device allows); during capture it is recorded as a graph
// node instead.
func (p *Process) Launch(s *Stream, name string, args []Value) error {
	impl, ok := p.rt.Impl(name)
	if !ok {
		return &UnknownKernelError{Name: name}
	}
	if err := checkArgs(impl, args); err != nil {
		return err
	}
	k, err := p.ensureModuleLoaded(impl)
	if err != nil {
		return err
	}
	if p.capture != nil && p.capture.invalidated == nil {
		node := p.capture.record(s, k, args)
		p.clock.Advance(p.cfg.CaptureOverhead)
		p.emitLaunch(LaunchRecord{
			KernelName: k.Name(),
			KernelAddr: k.Addr(),
			Params:     node.Params,
			Captured:   true,
			NodeID:     node.ID,
		})
		return nil
	}
	p.clock.Advance(p.cfg.LaunchOverhead)
	p.clock.Advance(p.kernelCost(impl, args))
	p.emitLaunch(LaunchRecord{KernelName: k.Name(), KernelAddr: k.Addr(), NodeID: -1})
	if p.dev.Functional() && impl.Func != nil {
		if err := impl.Func(p.dev, args); err != nil {
			return fmt.Errorf("kernel %s: %w", name, err)
		}
	}
	return nil
}

func (p *Process) emitLaunch(rec LaunchRecord) {
	if p.hooks.OnLaunch != nil {
		p.hooks.OnLaunch(rec)
	}
}

func checkArgs(impl *KernelImpl, args []Value) error {
	if len(args) != len(impl.Params) {
		return &ParamMismatchError{Kernel: impl.Name,
			Detail: fmt.Sprintf("got %d args, schema has %d", len(args), len(impl.Params))}
	}
	for i, a := range args {
		if a.Kind != impl.Params[i] {
			return &ParamMismatchError{Kernel: impl.Name,
				Detail: fmt.Sprintf("arg %d is %v, schema wants %v", i, a.Kind, impl.Params[i])}
		}
	}
	return nil
}
