package gpu

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testDevice(seed int64) *Device {
	return NewDevice(A100(seed, Functional))
}

func TestMallocFreeBasics(t *testing.T) {
	d := testDevice(1)
	a1, err := d.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatalf("two live allocations share address %#x", a1)
	}
	if len(d.alloc.live) != 2 {
		t.Fatalf("%d live buffers, want 2", len(d.alloc.live))
	}
	if err := d.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a1); !errors.As(err, new(*BadFreeError)) {
		t.Fatalf("double free returned %v, want BadFreeError", err)
	}
	if err := d.Free(a2 + 8); !errors.As(err, new(*BadFreeError)) {
		t.Fatalf("interior free returned %v, want BadFreeError", err)
	}
}

func TestAddressReuseAfterFree(t *testing.T) {
	d := testDevice(2)
	a1, _ := d.Malloc(4096)
	if err := d.Free(a1); err != nil {
		t.Fatal(err)
	}
	a2, _ := d.Malloc(4096)
	if a1 != a2 {
		t.Fatalf("freed address %#x not reused; got %#x", a1, a2)
	}
}

func TestBaseRandomizedAcrossSeeds(t *testing.T) {
	a1, _ := testDevice(100).Malloc(512)
	a2, _ := testDevice(200).Malloc(512)
	if a1 == a2 {
		t.Fatalf("first allocation identical across seeds: %#x", a1)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() []uint64 {
		d := testDevice(7)
		var addrs []uint64
		a, _ := d.Malloc(100)
		addrs = append(addrs, a)
		b, _ := d.Malloc(200)
		addrs = append(addrs, b)
		d.Free(a)
		c, _ := d.Malloc(100)
		addrs = append(addrs, c)
		return addrs
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("allocation %d differs across identical seeds: %#x vs %#x", i, x[i], y[i])
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "tiny", TotalMemory: 1 << 20, MemBandwidth: 1e9, PeakFLOPS: 1e9, Mode: Functional, Seed: 3})
	if _, err := d.Malloc(2 << 20); !errors.As(err, new(*OutOfMemoryError)) {
		t.Fatalf("oversized Malloc returned %v, want OutOfMemoryError", err)
	}
	// Fill then free must make room again.
	a, err := d.Malloc(1 << 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(1 << 19); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(1 << 19); err == nil {
		t.Fatal("third half-capacity Malloc unexpectedly succeeded")
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(1 << 19); err != nil {
		t.Fatalf("Malloc after Free failed: %v", err)
	}
}

func TestPeakUsedMemory(t *testing.T) {
	d := testDevice(4)
	a, _ := d.Malloc(10 << 20)
	b, _ := d.Malloc(5 << 20)
	d.Free(a)
	d.Free(b)
	if got := d.UsedMemory(); got != 0 {
		t.Fatalf("UsedMemory after frees = %d, want 0", got)
	}
	if got, want := d.PeakUsedMemory(), uint64(15<<20); got < want {
		t.Fatalf("PeakUsedMemory = %d, want >= %d", got, want)
	}
}

func TestFindBufferInterior(t *testing.T) {
	d := testDevice(5)
	a, _ := d.Malloc(1000)
	b, off, ok := d.FindBuffer(a + 500)
	if !ok || b.addr != a || off != 500 {
		t.Fatalf("FindBuffer(a+500) = (%v, %d, %v)", b, off, ok)
	}
	if _, _, ok := d.FindBuffer(a + 4096); ok {
		t.Fatal("FindBuffer matched past end of allocation")
	}
	if _, _, ok := d.FindBuffer(a - 8); ok {
		t.Fatal("FindBuffer matched before allocation")
	}
}

func TestBufferReadWrite(t *testing.T) {
	d := testDevice(6)
	a, _ := d.Malloc(64)
	buf, _ := d.Buffer(a)
	want := []byte{1, 2, 3, 4, 5}
	if err := buf.WriteAt(10, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := buf.ReadAt(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadAt = %v, want %v", got, want)
	}
	if err := buf.WriteAt(62, []byte{1, 2, 3}); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
}

func TestBufferFloat32Accessors(t *testing.T) {
	d := testDevice(8)
	a, _ := d.Malloc(256)
	buf, _ := d.Buffer(a)
	vals := []float32{1.5, -2.25, 3.75, 0}
	if err := buf.SetFloat32s(2, vals); err != nil {
		t.Fatal(err)
	}
	got, err := buf.Float32s(2, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("Float32s[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	v, err := buf.Float32(3)
	if err != nil || v != -2.25 {
		t.Fatalf("Float32(3) = %v, %v", v, err)
	}
	if err := buf.SetUint32(0, 42); err != nil {
		t.Fatal(err)
	}
	if u, _ := buf.Uint32(0); u != 42 {
		t.Fatalf("Uint32(0) = %d, want 42", u)
	}
}

func TestFreedBufferAccessFails(t *testing.T) {
	d := testDevice(9)
	a, _ := d.Malloc(16)
	buf, _ := d.Buffer(a)
	d.Free(a)
	if !buf.freed {
		t.Fatal("Freed() = false after Free")
	}
	if err := buf.WriteAt(0, []byte{1}); err == nil {
		t.Fatal("write to freed buffer succeeded")
	}
}

func TestCostOnlyRejectsDataAccess(t *testing.T) {
	d := NewDevice(A100(10, CostOnly))
	a, _ := d.Malloc(16)
	buf, _ := d.Buffer(a)
	if err := buf.WriteAt(0, []byte{1}); err == nil {
		t.Fatal("cost-only device allowed data access")
	}
}

// Property: live allocations never overlap, regardless of the
// alloc/free interleaving.
func TestNoOverlapProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		d := testDevice(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		var liveAddrs []uint64
		for _, op := range ops {
			if op%3 == 0 && len(liveAddrs) > 0 {
				i := rng.Intn(len(liveAddrs))
				if d.Free(liveAddrs[i]) != nil {
					return false
				}
				liveAddrs = append(liveAddrs[:i], liveAddrs[i+1:]...)
				continue
			}
			size := uint64(op%8192) + 1
			a, err := d.Malloc(size)
			if err != nil {
				return false
			}
			liveAddrs = append(liveAddrs, a)
		}
		// Verify pairwise disjointness of live buffers.
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, a := range liveAddrs {
			b, ok := d.Buffer(a)
			if !ok {
				return false
			}
			spans = append(spans, span{b.addr, b.addr + b.size})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: FindBuffer resolves any interior address of a live buffer to
// that buffer, with the correct offset.
func TestFindBufferProperty(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		d := testDevice(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for _, s := range sizes {
			size := uint64(s%4096) + 1
			a, err := d.Malloc(size)
			if err != nil {
				return false
			}
			off := uint64(rng.Int63n(int64(size)))
			b, gotOff, ok := d.FindBuffer(a + off)
			if !ok || b.addr != a || gotOff != off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFreeDropsContentsAndReportsUseAfterFree: a freed buffer's chunk
// may outlive it, so free drops its contents; the buffer still reports
// Freed, rejects access, and a second free is a BadFreeError.
func TestFreeDropsContentsAndReportsUseAfterFree(t *testing.T) {
	d := testDevice(12)
	a, _ := d.Malloc(64)
	buf, _ := d.Buffer(a)
	if err := buf.WriteAt(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if buf.data != nil {
		t.Fatal("freed buffer still holds its contents")
	}
	if !buf.freed {
		t.Fatal("Freed() = false after Free")
	}
	if _, err := buf.Snapshot(); err == nil {
		t.Fatal("snapshot of freed buffer succeeded")
	}
	if err := buf.ReadAt(0, make([]byte, 1)); err == nil {
		t.Fatal("read of freed buffer succeeded")
	}
	var bad *BadFreeError
	if err := d.Free(a); !errors.As(err, &bad) || bad.Addr != a {
		t.Fatalf("double free = %v, want BadFreeError at %#x", err, a)
	}
	// The address comes back to a new buffer; the old one stays freed.
	b, _ := d.Malloc(64)
	if b != a {
		t.Fatalf("reallocation = %#x, want reuse of %#x", b, a)
	}
	if !buf.freed {
		t.Fatal("reallocating the address revived the freed buffer")
	}
}

// TestBuffersSurviveChunkGrowth: buffers carved from successive chunks
// keep their identity and contents as later chunks are made.
func TestBuffersSurviveChunkGrowth(t *testing.T) {
	d := testDevice(13)
	var bufs []*Buffer
	for i := 0; i < 3*maxChunk; i++ {
		a, err := d.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := d.Buffer(a)
		if err := b.SetUint32(0, uint32(i)); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	for i, b := range bufs {
		if got, ok := d.Buffer(b.addr); !ok || got != b {
			t.Fatalf("buffer %d: lookup returned a different Buffer", i)
		}
		if v, err := b.Uint32(0); err != nil || v != uint32(i) {
			t.Fatalf("buffer %d holds %d (%v), want %d", i, v, err, i)
		}
	}
}

// TestMallocFreeCycleAllocatesLittle: a Malloc/Free cycle carves one
// Buffer from a chunk, so it averages well under one heap allocation.
func TestMallocFreeCycleAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	d := NewDevice(A100(14, CostOnly))
	cycle := func() {
		a, err := d.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n >= 1 {
		t.Fatalf("Malloc/Free cycle allocated %v times, want under 1", n)
	}
}
