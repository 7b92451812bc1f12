package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
)

// maxFunctionalBuffer caps how large a buffer may be materialized with
// real bytes. Functional models in this repository are tiny; anything
// larger indicates a cost-only model accidentally touching data.
const maxFunctionalBuffer = 64 << 20

// Buffer is one device allocation.
type Buffer struct {
	addr        uint64
	size        uint64
	alignedSize uint64
	functional  bool
	freed       bool
	data        []byte // lazily materialized in functional mode
}

func (b *Buffer) materialize() error {
	if b.data != nil {
		return nil
	}
	if !b.functional {
		return fmt.Errorf("gpu: data access to buffer %#x on cost-only device", b.addr)
	}
	if b.size > maxFunctionalBuffer {
		return fmt.Errorf("gpu: functional buffer of %d bytes exceeds %d byte cap", b.size, maxFunctionalBuffer)
	}
	b.data = make([]byte, b.size)
	return nil
}

func (b *Buffer) checkRange(off, n uint64) error {
	if b.freed {
		return fmt.Errorf("gpu: illegal memory access: buffer %#x is freed", b.addr)
	}
	if off+n > b.size {
		return fmt.Errorf("gpu: access [%d,%d) out of bounds of buffer %#x (size %d)", off, off+n, b.addr, b.size)
	}
	return nil
}

// WriteAt copies host bytes into the buffer at the given offset.
func (b *Buffer) WriteAt(off uint64, p []byte) error {
	if err := b.checkRange(off, uint64(len(p))); err != nil {
		return err
	}
	if err := b.materialize(); err != nil {
		return err
	}
	copy(b.data[off:], p)
	return nil
}

// ReadAt copies buffer bytes into p from the given offset.
func (b *Buffer) ReadAt(off uint64, p []byte) error {
	if err := b.checkRange(off, uint64(len(p))); err != nil {
		return err
	}
	if err := b.materialize(); err != nil {
		return err
	}
	copy(p, b.data[off:])
	return nil
}

// Float32 returns the float32 stored at element index i.
func (b *Buffer) Float32(i int) (float32, error) {
	var p [4]byte
	if err := b.ReadAt(uint64(i)*4, p[:]); err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(p[:])), nil
}

// Float32s reads n float32 elements starting at element index off.
func (b *Buffer) Float32s(off, n int) ([]float32, error) {
	p := make([]byte, n*4)
	if err := b.ReadAt(uint64(off)*4, p); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return out, nil
}

// SetFloat32s writes vs starting at element index off.
func (b *Buffer) SetFloat32s(off int, vs []float32) error {
	p := make([]byte, len(vs)*4)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(p[i*4:], math.Float32bits(v))
	}
	return b.WriteAt(uint64(off)*4, p)
}

// Uint32 returns the uint32 stored at element index i.
func (b *Buffer) Uint32(i int) (uint32, error) {
	var p [4]byte
	if err := b.ReadAt(uint64(i)*4, p[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p[:]), nil
}

// SetUint32 stores v at element index i.
func (b *Buffer) SetUint32(i int, v uint32) error {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], v)
	return b.WriteAt(uint64(i)*4, p[:])
}

// Snapshot returns a copy of the buffer contents (materializing zeroes
// if never written). Used by Medusa when saving permanent buffer
// contents and by validation when comparing forwarding outputs.
func (b *Buffer) Snapshot() ([]byte, error) {
	if err := b.checkRange(0, b.size); err != nil {
		return nil, err
	}
	if err := b.materialize(); err != nil {
		return nil, err
	}
	out := make([]byte, b.size)
	copy(out, b.data)
	return out, nil
}
