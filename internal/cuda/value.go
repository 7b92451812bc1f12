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

// Encode serializes the argument to its little-endian raw image.
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

// sizeMismatch reports an image of size bytes for a param of kind.
func sizeMismatch(size int, kind ParamKind) error {
	return fmt.Errorf("cuda: param image of %d bytes, kind %v wants %d", size, kind, kind.Size())
}

// DecodeValue parses a raw parameter image using the declared kind.
func DecodeValue(kind ParamKind, raw []byte) (Value, error) {
	if len(raw) != kind.Size() {
		return Value{}, sizeMismatch(len(raw), kind)
	}
	return decodeValue(kind, raw), nil
}

// decodeValue parses an image already known to be kind's width.
func decodeValue(kind ParamKind, raw []byte) Value {
	if len(raw) == 8 {
		return Value{Kind: kind, Bits: binary.LittleEndian.Uint64(raw)}
	}
	return Value{Kind: kind, Bits: uint64(binary.LittleEndian.Uint32(raw))}
}

// Param is one kernel parameter of a graph node, its raw image held
// inline. Kernel parameters are scalars or device pointers of at most
// 8 bytes, so a fixed array beside the image's width costs less than
// a slice header pointing into a slab, and a node's parameters are one
// pointer-free array the GC never scans.
type Param struct {
	// Image holds the parameter image in its first Size bytes; the rest
	// stay zero, so params with equal images compare equal.
	Image [maxParamImage]byte
	// Size is the image's width in bytes. Graph.Validate rejects a
	// width over maxParamImage and Instantiate one that is not the
	// kernel's, so a checked graph's Raw never slices past Image.
	Size uint8
}

// maxParamImage is the widest parameter image: a device pointer or an
// 8-byte scalar.
const maxParamImage = 8

// Raw returns the parameter image, Image[:Size]. The slice aliases the
// param, and its capacity ends at Size, so appending to it copies.
func (p *Param) Raw() []byte { return p.Image[:p.Size:p.Size] }

// Param returns the argument as a graph node stores it.
func (v Value) Param() Param {
	var p Param
	p.Size = uint8(v.put(p.Image[:]))
	return p
}

// EncodeArgs serializes an argument list into graph node parameters.
func EncodeArgs(args []Value) []Param {
	out := make([]Param, len(args))
	for i, a := range args {
		out[i] = a.Param()
	}
	return out
}

// DecodeArgs parses graph node parameters against a kernel's declared
// parameter schema and appends the values to dst, so a caller can reuse
// one buffer across launches. A parameter whose width is not its
// kind's fails before its image is read.
func DecodeArgs(dst []Value, kinds []ParamKind, params []Param) ([]Value, error) {
	if len(kinds) != len(params) {
		return nil, fmt.Errorf("cuda: %d param images for %d declared params", len(params), len(kinds))
	}
	for i := range params {
		p := &params[i]
		if int(p.Size) != kinds[i].Size() {
			return nil, fmt.Errorf("param %d: %w", i, sizeMismatch(int(p.Size), kinds[i]))
		}
		dst = append(dst, decodeValue(kinds[i], p.Raw()))
	}
	return dst, nil
}
