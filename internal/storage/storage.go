// Package storage simulates the persistent storage tier of the paper's
// testbed — an array of four Optane P5800X NVMe SSDs holding model
// weights and Medusa artifacts. Effective read bandwidth is calibrated
// to Figure 8a: loading Qwen1.5-4B's 7.4 GB of weights takes ≈0.39 s,
// i.e. ≈19 GB/s with the host page cache warm.
package storage

import (
	"fmt"
	"sync"
	"time"

	"github.com/medusa-repro/medusa/internal/vclock"
)

// Array models the SSD tier's timing.
type Array struct {
	// Bandwidth is effective sequential read/write bandwidth, bytes/s.
	Bandwidth float64
	// Latency is the fixed per-request latency.
	Latency time.Duration
}

// DefaultArray returns the calibrated 4×P5800X array.
func DefaultArray() Array {
	return Array{Bandwidth: 19e9, Latency: 80 * time.Microsecond}
}

// ReadDuration is the virtual time to read n bytes.
func (a Array) ReadDuration(n uint64) time.Duration {
	return a.Latency + time.Duration(float64(n)/a.Bandwidth*float64(time.Second))
}

// WriteDuration is the virtual time to write n bytes (Optane writes at
// read-class speed; a mild penalty applies).
func (a Array) WriteDuration(n uint64) time.Duration {
	return a.Latency + time.Duration(float64(n)/(0.8*a.Bandwidth)*float64(time.Second))
}

// Store is a named-object store on the array — model weight files and
// Medusa artifacts live here. It is shared across simulated processes
// (offline phase writes, online phase reads) and safe for concurrent
// use.
type Store struct {
	arr Array

	mu      sync.Mutex
	objects map[string][]byte
	sizes   map[string]uint64 // declared sizes for content-free objects
	fetched map[string]bool   // names already charged through GetOnce
}

// NewStore creates a store on the given array.
func NewStore(arr Array) *Store {
	return &Store{arr: arr, objects: make(map[string][]byte), sizes: make(map[string]uint64)}
}

// Array returns the underlying array timing model.
func (s *Store) Array() Array { return s.arr }

// Put writes an object, charging write time on the clock. The store
// takes ownership of data, without copying it: callers must not modify
// the slice afterwards. Get and Peek return copies.
func (s *Store) Put(clock *vclock.Clock, name string, data []byte) {
	clock.Advance(s.arr.WriteDuration(uint64(len(data))))
	s.mu.Lock()
	s.objects[name] = data
	s.sizes[name] = uint64(len(data))
	delete(s.fetched, name) // rewritten contents must be re-read
	s.mu.Unlock()
}

// PutSized records a content-free object of a declared size — used for
// multi-gigabyte weight files whose bytes are generated on demand.
// Charges write time for the full size.
func (s *Store) PutSized(clock *vclock.Clock, name string, size uint64) {
	clock.Advance(s.arr.WriteDuration(size))
	s.mu.Lock()
	s.objects[name] = nil
	s.sizes[name] = size
	delete(s.fetched, name) // rewritten contents must be re-read
	s.mu.Unlock()
}

// Get reads an object, charging read time for its size.
func (s *Store) Get(clock *vclock.Clock, name string) ([]byte, error) {
	s.mu.Lock()
	data, ok := s.objects[name]
	size := s.sizes[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: object %q not found", name)
	}
	clock.Advance(s.arr.ReadDuration(size))
	if data == nil {
		return nil, nil
	}
	return append([]byte(nil), data...), nil
}

// GetOnce reads an object like Get, but charges the read time only on
// the first call per name: later calls return the bytes at zero virtual
// cost, as the object is already resident in host memory. This is the
// single-process analogue of the cluster cache's singleflight — the
// template half of a v3 artifact is fetched once per process however
// many delta-encoded artifacts reference it. The dedup state is
// per-store and survives across clocks.
func (s *Store) GetOnce(clock *vclock.Clock, name string) ([]byte, error) {
	s.mu.Lock()
	if s.fetched == nil {
		s.fetched = make(map[string]bool)
	}
	hit := s.fetched[name]
	s.mu.Unlock()
	if hit {
		data, ok := s.Peek(name)
		if !ok {
			return nil, fmt.Errorf("storage: object %q not found", name)
		}
		return data, nil
	}
	data, err := s.Get(clock, name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.fetched[name] = true
	s.mu.Unlock()
	return data, nil
}

// Peek returns an object's contents without charging I/O time — for
// callers that have already paid the transfer (GetOnce's repeat
// reads). Returns nil contents for content-free (PutSized) objects.
func (s *Store) Peek(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[name]
	if !ok {
		return nil, false
	}
	if data == nil {
		return nil, true
	}
	return append([]byte(nil), data...), true
}

// Size returns an object's size without charging I/O time.
func (s *Store) Size(name string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sz, ok := s.sizes[name]
	return sz, ok
}

// Exists reports whether an object is present.
func (s *Store) Exists(name string) bool {
	_, ok := s.Size(name)
	return ok
}

// ChargeRead advances the clock as if n bytes were streamed from the
// array, optionally slowed by a contention factor ≥1 (the paper's §7.3
// observation: profiling forwarding blocks some of the async copies the
// weights-loading stage issues, stretching it).
func (s *Store) ChargeRead(clock *vclock.Clock, n uint64, slowdown float64) {
	if slowdown < 1 {
		slowdown = 1
	}
	d := s.arr.ReadDuration(n)
	clock.Advance(time.Duration(float64(d) * slowdown))
}
