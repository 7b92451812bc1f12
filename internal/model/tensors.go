package model

import (
	"encoding/binary"
	"math"
	"strconv"
)

// TensorSpec describes one weight tensor of the model structure.
type TensorSpec struct {
	// Name identifies the tensor, e.g. "layers.3.wqkv".
	Name string
	// Layer is the owning decoder layer, or -1 for global tensors.
	Layer int
	// Elems is the element count.
	Elems int
	// Norm marks normalization weights (initialized near 1).
	Norm bool
}

// Bytes returns the tensor's device size for the config: 4 bytes per
// element for functional (f32) models, 2 for cost-only (fp16) ones.
func (c Config) TensorBytes(s TensorSpec) uint64 {
	if c.Functional {
		return uint64(s.Elems) * 4
	}
	return uint64(s.Elems) * 2
}

// Tensors returns the model's weight tensors in initialization order —
// the order the model structure initialization stage allocates device
// buffers, and therefore the deterministic prefix of the allocation
// sequence the paper's §4 leans on.
//
// For tensor-parallel shards the weight matrices are divided TP-ways
// (column-parallel for QKV/gate-up/LM head, row-parallel for O/down),
// while embeddings and norms are replicated — the Megatron layout.
func (c Config) Tensors() []TensorSpec {
	n := 0
	c.eachTensor(func(TensorSpec) { n++ })
	specs := make([]TensorSpec, 0, n)
	c.eachTensor(func(s TensorSpec) {
		if s.Layer >= 0 {
			s.Name = "layers." + strconv.Itoa(s.Layer) + "." + s.Name
		}
		specs = append(specs, s)
	})
	return specs
}

// eachTensor calls fn with every weight tensor in initialization
// order. Layer tensors carry only their name's suffix ("wqkv");
// Tensors prefixes the layer.
func (c Config) eachTensor(fn func(TensorSpec)) {
	h, f, v := c.Hidden, c.FFN, c.Vocab
	tp := c.TP()
	fn(TensorSpec{Name: "embed_tokens", Layer: -1, Elems: v * h})
	for l := 0; l < c.Layers; l++ {
		fn(TensorSpec{Name: "input_norm", Layer: l, Elems: h, Norm: true})
		fn(TensorSpec{Name: "wqkv", Layer: l, Elems: h * 3 * h / tp})
		fn(TensorSpec{Name: "wo", Layer: l, Elems: h * h / tp})
		fn(TensorSpec{Name: "post_norm", Layer: l, Elems: h, Norm: true})
		fn(TensorSpec{Name: "wgateup", Layer: l, Elems: h * 2 * f / tp})
		fn(TensorSpec{Name: "wdown", Layer: l, Elems: f * h / tp})
		if c.Family == FamilyParallel {
			fn(TensorSpec{Name: "attn_bias", Layer: l, Elems: h})
		}
	}
	fn(TensorSpec{Name: "final_norm", Layer: -1, Elems: h, Norm: true})
	fn(TensorSpec{Name: "lm_head", Layer: -1, Elems: v * h / tp})
}

// WeightBytesTotal sums the device bytes of all tensors.
func (c Config) WeightBytesTotal() uint64 {
	var total uint64
	c.eachTensor(func(s TensorSpec) { total += c.TensorBytes(s) })
	return total
}

// LoadBytes is the number of bytes the weights-loading stage streams
// from storage: the published parameter size when available (divided
// across tensor-parallel ranks), otherwise the structural total (tiny
// functional models).
func (c Config) LoadBytes() uint64 {
	if c.ParamBytes > 0 {
		return c.ParamBytes / uint64(c.TP())
	}
	return c.WeightBytesTotal()
}

// TensorData deterministically generates a functional tensor's f32
// contents. The same (model, tensor) pair always produces the same
// bytes, standing in for weights files on the SSD array.
func (c Config) TensorData(s TensorSpec) []byte {
	out := make([]byte, s.Elems*4)
	state := hash64(c.Name + "/" + s.Name)
	for i := 0; i < s.Elems; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		// Map to small centered floats so deep compositions stay finite.
		u := float64(state>>11) / float64(1<<53) // [0,1)
		v := float32((u - 0.5) * 0.5)
		if s.Norm {
			v = 1 + v*0.1
		}
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func hash64(s string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
