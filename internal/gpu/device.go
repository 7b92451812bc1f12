// Package gpu simulates a single GPU device — its memory, its allocator,
// and its execution-time accounting. It stands in for the A100-40GB used
// in the paper's evaluation.
//
// The allocator deliberately reproduces the two properties Medusa's
// parameter restoration (§4 of the paper) has to fight:
//
//  1. Non-determinism across process launches: the allocation base is
//     randomized per device (per simulated process), so the same
//     allocation sequence yields different addresses on every cold start,
//     exactly like cudaMalloc.
//  2. Address reuse within a launch: freed blocks are kept on per-size
//     free lists and handed back to later allocations of the same size,
//     which is what makes naive first-match pointer analysis produce the
//     false positives of §4.1.
//
// Buffers are backed lazily: data is materialized only when a kernel or
// memcpy actually touches it, and only when the device runs in functional
// mode. Cost-only mode (used for the paper's 7B–14B models whose tensors
// would not fit in host memory) charges virtual time without touching
// bytes.
package gpu

import (
	"fmt"
	"math/rand"
)

// ExecMode selects whether kernels actually compute on buffer contents.
type ExecMode int

const (
	// Functional mode backs buffers with real bytes and runs kernel
	// implementations; used by tests, validation forwarding, and small
	// models.
	Functional ExecMode = iota
	// CostOnly mode skips kernel bodies and data movement, charging only
	// virtual time; used for the large calibrated models.
	CostOnly
)

func (m ExecMode) String() string {
	switch m {
	case Functional:
		return "functional"
	case CostOnly:
		return "cost-only"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// DeviceConfig describes the simulated hardware.
type DeviceConfig struct {
	// Name is a human-readable device model, e.g. "A100-SXM4-40GB".
	Name string
	// TotalMemory is the device memory capacity in bytes.
	TotalMemory uint64
	// MemBandwidth is the HBM bandwidth in bytes/second, used by the
	// engine's cost model for memory-bound kernels.
	MemBandwidth float64
	// PeakFLOPS is the dense fp16 throughput in FLOP/s, used for
	// compute-bound kernels (prefill).
	PeakFLOPS float64
	// Mode selects functional or cost-only execution.
	Mode ExecMode
	// Seed randomizes the allocator base and free-list behaviour. Each
	// simulated process launch must use a fresh seed to model cudaMalloc
	// non-determinism.
	Seed int64
}

// A100 returns the configuration of the paper's evaluation GPU.
func A100(seed int64, mode ExecMode) DeviceConfig {
	return DeviceConfig{
		Name:         "A100-SXM4-40GB",
		TotalMemory:  40 << 30,
		MemBandwidth: 1555e9, // 1555 GB/s HBM2e
		PeakFLOPS:    312e12, // fp16 tensor core peak
		Mode:         mode,
		Seed:         seed,
	}
}

// Device is one simulated GPU owned by one simulated process.
type Device struct {
	cfg   DeviceConfig
	alloc *Allocator

	// peakUsed tracks the high-water mark of allocated bytes; the KV
	// cache initialization stage profiles it (§6).
	peakUsed uint64
}

// NewDevice creates a device with a fresh randomized allocator.
func NewDevice(cfg DeviceConfig) *Device {
	if cfg.TotalMemory == 0 {
		cfg = A100(cfg.Seed, cfg.Mode)
	}
	d := &Device{cfg: cfg}
	d.alloc = newAllocator(cfg.TotalMemory, rand.New(rand.NewSource(cfg.Seed)))
	return d
}

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// Functional reports whether kernels execute on real buffer contents.
func (d *Device) Functional() bool { return d.cfg.Mode == Functional }

// Malloc allocates size bytes of device memory and returns its address.
// Addresses are process-unique among live allocations but freed addresses
// may be returned again, as with a caching device allocator.
func (d *Device) Malloc(size uint64) (uint64, error) {
	addr, err := d.alloc.alloc(size, d.Functional())
	if err != nil {
		return 0, err
	}
	if u := d.alloc.used; u > d.peakUsed {
		d.peakUsed = u
	}
	return addr, nil
}

// Free releases the allocation that starts at addr.
func (d *Device) Free(addr uint64) error { return d.alloc.free(addr) }

// UsedMemory reports currently allocated bytes.
func (d *Device) UsedMemory() uint64 { return d.alloc.used }

// PeakUsedMemory reports the allocation high-water mark since device
// creation. The KV cache profiling forwarding reads this to determine the
// residual free memory available for KV blocks.
func (d *Device) PeakUsedMemory() uint64 { return d.peakUsed }

// Buffer returns the live buffer starting exactly at addr.
func (d *Device) Buffer(addr uint64) (*Buffer, bool) {
	b, ok := d.alloc.live[addr]
	return b, ok
}

// FindBuffer returns the live buffer containing addr (the address may
// point into the interior of an allocation, as kernel parameters often
// do) along with the offset of addr within it.
func (d *Device) FindBuffer(addr uint64) (*Buffer, uint64, bool) {
	b, ok := d.alloc.findContaining(addr)
	if !ok {
		return nil, 0, false
	}
	return b, addr - b.addr, true
}
