// Package cuda simulates the slice of the CUDA driver and runtime that
// the paper's materialization pipeline exercises: device allocation,
// kernel launch, stream capture into CUDA graphs, graph instantiation
// and replay, lazy module loading, and the introspection APIs
// (cudaGetFuncBySymbol, cuModuleEnumerateFunctions, cuFuncGetName).
//
// Graph nodes store kernel parameters exactly as Figure 4(d) of the
// paper describes: a kernel address, an array of raw parameter images,
// and the size of each parameter. Nothing in the node says which
// parameters are pointers — recovering that is Medusa's job (§4).
package cuda

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ParamKind is the declared type of one kernel parameter. The kind is
// known to the kernel implementation (it decodes its own arguments), but
// it is *not* recorded in captured graph nodes: there, only the raw
// bytes and their sizes survive, exactly as in real CUDA.
type ParamKind uint8

const (
	// Ptr is an 8-byte device pointer.
	Ptr ParamKind = iota
	// U64 is an 8-byte integer scalar.
	U64
	// U32 is a 4-byte integer scalar.
	U32
	// F32 is a 4-byte float scalar.
	F32
)

// Size returns the parameter's size in bytes.
func (k ParamKind) Size() int {
	switch k {
	case Ptr, U64:
		return 8
	case U32, F32:
		return 4
	default:
		panic(fmt.Sprintf("cuda: unknown ParamKind %d", k))
	}
}

func (k ParamKind) String() string {
	switch k {
	case Ptr:
		return "ptr"
	case U64:
		return "u64"
	case U32:
		return "u32"
	case F32:
		return "f32"
	default:
		return fmt.Sprintf("ParamKind(%d)", uint8(k))
	}
}

// Value is one typed kernel argument.
type Value struct {
	Kind ParamKind
	Bits uint64
}

// PtrValue returns a device-pointer argument.
func PtrValue(addr uint64) Value { return Value{Kind: Ptr, Bits: addr} }

// U64Value returns an 8-byte scalar argument.
func U64Value(v uint64) Value { return Value{Kind: U64, Bits: v} }

// U32Value returns a 4-byte scalar argument.
func U32Value(v uint32) Value { return Value{Kind: U32, Bits: uint64(v)} }

// F32Value returns a 4-byte float argument.
func F32Value(v float32) Value { return Value{Kind: F32, Bits: uint64(math.Float32bits(v))} }

// Ptr returns the argument as a device pointer.
func (v Value) Ptr() uint64 { return v.Bits }

// U64 returns the argument as an 8-byte scalar.
func (v Value) U64() uint64 { return v.Bits }

// U32 returns the argument as a 4-byte scalar.
func (v Value) U32() uint32 { return uint32(v.Bits) }

// F32 returns the argument as a float scalar.
func (v Value) F32() float32 { return math.Float32frombits(uint32(v.Bits)) }

// Encode serializes the argument to its little-endian raw image — the
// representation stored in a captured graph node.
func (v Value) Encode() []byte {
	p := make([]byte, v.Kind.Size())
	v.put(p)
	return p
}

// put writes the argument's raw image to the front of p and returns
// its size.
func (v Value) put(p []byte) int {
	switch v.Kind.Size() {
	case 8:
		binary.LittleEndian.PutUint64(p, v.Bits)
		return 8
	case 4:
		binary.LittleEndian.PutUint32(p, uint32(v.Bits))
		return 4
	default:
		panic("unreachable")
	}
}

// DecodeValue parses a raw parameter image using the declared kind.
func DecodeValue(kind ParamKind, raw []byte) (Value, error) {
	if len(raw) != kind.Size() {
		return Value{}, fmt.Errorf("cuda: param image of %d bytes, kind %v wants %d", len(raw), kind, kind.Size())
	}
	switch kind.Size() {
	case 8:
		return Value{Kind: kind, Bits: binary.LittleEndian.Uint64(raw)}, nil
	default:
		return Value{Kind: kind, Bits: uint64(binary.LittleEndian.Uint32(raw))}, nil
	}
}

// EncodeArgs serializes an argument list into raw parameter images.
// The images share one slab; each is a full-slice-expression sub-slice
// (len == cap), so appending to one can never overwrite its neighbour.
func EncodeArgs(args []Value) [][]byte {
	out := make([][]byte, len(args))
	encodeArgs(make([]byte, argBytes(args)), out, args)
	return out
}

// argBytes sums the raw image sizes of an argument list.
func argBytes(args []Value) int {
	n := 0
	for _, a := range args {
		n += a.Kind.Size()
	}
	return n
}

// encodeArgs writes the arguments' raw images into slab, which holds
// exactly argBytes(args), and cuts each image out of it into images[i]
// as a full-slice-expression sub-slice.
func encodeArgs(slab []byte, images [][]byte, args []Value) {
	off := 0
	for i, a := range args {
		n := a.put(slab[off:])
		images[i] = slab[off : off+n : off+n]
		off += n
	}
}

// DecodeArgs parses raw parameter images against a kernel's declared
// parameter schema and appends the values to dst, so a caller can reuse
// one buffer across launches.
func DecodeArgs(dst []Value, kinds []ParamKind, raw [][]byte) ([]Value, error) {
	if len(kinds) != len(raw) {
		return nil, fmt.Errorf("cuda: %d param images for %d declared params", len(raw), len(kinds))
	}
	for i := range raw {
		v, err := DecodeValue(kinds[i], raw[i])
		if err != nil {
			return nil, fmt.Errorf("param %d: %w", i, err)
		}
		dst = append(dst, v)
	}
	return dst, nil
}
