package gpu

import (
	"fmt"
	"math/rand"
	"sort"
)

// allocAlign is the allocation granularity, matching the 512-byte
// alignment of CUDA device allocations.
const allocAlign = 512

// ErrOutOfMemory is returned when the device cannot satisfy an
// allocation.
type OutOfMemoryError struct {
	Requested uint64
	Free      uint64
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("gpu: out of memory: requested %d bytes, %d free", e.Requested, e.Free)
}

// BadFreeError is returned when freeing an address that is not the start
// of a live allocation.
type BadFreeError struct{ Addr uint64 }

func (e *BadFreeError) Error() string {
	return fmt.Sprintf("gpu: free of invalid address %#x", e.Addr)
}

// Allocator hands out device addresses. It is a caching bump allocator:
// fresh allocations carve new address space from a randomized per-process
// base, while freed blocks go to per-size LIFO free lists and are reused
// by later allocations of the same (aligned) size. The reuse is what
// creates the aliasing the paper's trace-based analysis must resolve.
//
// Buffers are carved from pointer-stable chunks rather than allocated
// one by one: a device's first chunk holds minChunk Buffers and each
// next one twice as many, up to maxChunk. A freed Buffer's slot is
// never reused, since callers may still hold the Buffer and must see
// Freed. A chunk therefore stays reachable while any Buffer in it is,
// so free drops the freed Buffer's functional contents at once rather
// than pinning them for the chunk's lifetime.
type Allocator struct {
	total uint64
	used  uint64

	base uint64 // randomized start of the arena
	next uint64 // bump pointer

	freeBySize map[uint64][]uint64 // aligned size -> LIFO of reusable addresses
	live       map[uint64]*Buffer  // start address -> buffer
	sorted     []uint64            // sorted live start addresses, for interior lookups
	chunk      []Buffer            // the chunk new Buffers are carved from
}

// Buffer chunk sizes: a device with a handful of allocations (a tiny
// functional model) keeps a small chunk, while a zoo model's hundreds
// of tensors cost one allocation per maxChunk Buffers.
const (
	minChunk = 8
	maxChunk = 512
)

func newAllocator(total uint64, rng *rand.Rand) *Allocator {
	// Randomize the arena base the way virtual address space layout
	// randomization and driver state perturb cudaMalloc results: a high
	// canonical address with per-process jitter.
	jitter := uint64(rng.Int63n(1<<30)) &^ (allocAlign - 1)
	base := uint64(0x7f30_0000_0000) + jitter
	return &Allocator{
		total:      total,
		base:       base,
		next:       base,
		freeBySize: make(map[uint64][]uint64),
		live:       make(map[uint64]*Buffer),
	}
}

func alignUp(n uint64) uint64 {
	return (n + allocAlign - 1) &^ (allocAlign - 1)
}

func (a *Allocator) alloc(size uint64, functional bool) (uint64, error) {
	if size == 0 {
		size = 1
	}
	aligned := alignUp(size)
	if a.used+aligned > a.total {
		return 0, &OutOfMemoryError{Requested: size, Free: a.total - a.used}
	}
	var addr uint64
	if lst := a.freeBySize[aligned]; len(lst) > 0 {
		// LIFO reuse: the most recently freed block of this size comes
		// back first, maximizing the chance a later allocation observes
		// an address an earlier (already freed) allocation returned.
		addr = lst[len(lst)-1]
		a.freeBySize[aligned] = lst[:len(lst)-1]
	} else {
		addr = a.next
		a.next += aligned
	}
	b := a.newBuffer()
	*b = Buffer{addr: addr, size: size, alignedSize: aligned, functional: functional}
	a.live[addr] = b
	a.insertSorted(addr)
	a.used += aligned
	return addr, nil
}

func (a *Allocator) free(addr uint64) error {
	b, ok := a.live[addr]
	if !ok {
		return &BadFreeError{Addr: addr}
	}
	delete(a.live, addr)
	a.removeSorted(addr)
	a.used -= b.alignedSize
	b.freed = true
	b.data = nil // the chunk outlives b: do not pin its contents
	a.freeBySize[b.alignedSize] = append(a.freeBySize[b.alignedSize], addr)
	return nil
}

// newBuffer returns the next unused Buffer of the current chunk,
// starting a new chunk when it is full.
func (a *Allocator) newBuffer() *Buffer {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Buffer, 0, min(max(2*cap(a.chunk), minChunk), maxChunk))
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

func (a *Allocator) insertSorted(addr uint64) {
	i := sort.Search(len(a.sorted), func(i int) bool { return a.sorted[i] >= addr })
	a.sorted = append(a.sorted, 0)
	copy(a.sorted[i+1:], a.sorted[i:])
	a.sorted[i] = addr
}

func (a *Allocator) removeSorted(addr uint64) {
	i := sort.Search(len(a.sorted), func(i int) bool { return a.sorted[i] >= addr })
	if i < len(a.sorted) && a.sorted[i] == addr {
		a.sorted = append(a.sorted[:i], a.sorted[i+1:]...)
	}
}

// findContaining returns the live buffer whose [addr, addr+size) range
// contains p.
func (a *Allocator) findContaining(p uint64) (*Buffer, bool) {
	if b, ok := a.live[p]; ok {
		return b, true
	}
	i := sort.Search(len(a.sorted), func(i int) bool { return a.sorted[i] > p })
	if i == 0 {
		return nil, false
	}
	b := a.live[a.sorted[i-1]]
	if p < b.addr+b.size {
		return b, true
	}
	return nil, false
}
