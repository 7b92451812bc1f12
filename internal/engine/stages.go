package engine

import (
	"fmt"
	"strings"

	"github.com/medusa-repro/medusa/internal/kvcache"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/tokenizer"
)

// ioSet is the persistent device buffers forwarding reads and writes.
// They are allocated once during model structure initialization (like
// the static input/output tensors vLLM wires into its CUDA graphs) and
// referenced by every captured graph.
type ioSet struct {
	ids     uint64 // token IDs, one u32 per row
	meta    uint64 // [block tables | sequence lengths], u32
	x       uint64 // hidden state, rows×hidden f32
	norm    uint64 // normalized activations
	qkv     uint64 // fused QKV projections, rows×3·hidden
	attnOut uint64 // attention output
	oOut    uint64 // o-projection output
	gateUp  uint64 // fused gate+up MLP projections, rows×2·ffn
	mlpOut  uint64 // SiLU(gate)·up, rows×ffn
	downOut uint64 // down-projection output
	logits  uint64 // rows×vocab
	aux     uint64 // auxiliary logits-processing scratch
	sample  uint64 // sampled tokens + mix words, 2 u32 per row
	pad     uint64 // padding-kernel marker word
}

// maxBlocksPerSeq is the block-table width per sequence.
func maxBlocksPerSeq(cfg model.Config) int {
	return kvcache.BlocksForTokens(cfg.MaxSeqLen)
}

// metaSeqlenOffset is the element offset of the sequence-length array
// inside the metadata buffer.
func metaSeqlenOffset(cfg model.Config, rows int) int {
	return rows * maxBlocksPerSeq(cfg)
}

// stageStructInit builds the model structure: per-layer weight tensor
// buffers (in the deterministic order §4 leans on) plus the persistent
// IO buffers, and charges the Python-side construction cost.
func (inst *Instance) stageStructInit() error {
	cfg := inst.opts.Model
	specs := cfg.Tensors()
	done := inst.stageSpan("struct_init")
	defer done(obs.Attr{Key: "tensors", Value: fmt.Sprint(len(specs))})
	inst.proc.Clock().Advance(structInitDuration(cfg))
	inst.layers = make([]layerWeights, cfg.Layers)
	for _, spec := range specs {
		addr, err := inst.proc.Malloc(cfg.TensorBytes(spec))
		if err != nil {
			return fmt.Errorf("tensor %s: %w", spec.Name, err)
		}
		inst.weights[spec.Name] = addr
		if spec.Layer >= 0 {
			inst.layers[spec.Layer].set(spec.Name[strings.LastIndexByte(spec.Name, '.')+1:], addr)
		}
	}
	return inst.allocIO()
}

// layerWeights holds one decoder layer's weight addresses, resolved
// once at structure initialization so forwards never look a layer's
// weights up by formatted name.
type layerWeights struct {
	inputNorm, wqkv, wo, postNorm, wgateup, wdown, attnBias uint64
}

// set records the address of the layer tensor with the given
// model.Config.Tensors name suffix.
func (w *layerWeights) set(suffix string, addr uint64) {
	switch suffix {
	case "input_norm":
		w.inputNorm = addr
	case "wqkv":
		w.wqkv = addr
	case "wo":
		w.wo = addr
	case "post_norm":
		w.postNorm = addr
	case "wgateup":
		w.wgateup = addr
	case "wdown":
		w.wdown = addr
	case "attn_bias":
		w.attnBias = addr
	}
}

// allocIO allocates the persistent IO buffers for the largest capture
// batch size.
func (inst *Instance) allocIO() error {
	cfg := inst.opts.Model
	rows := uint64(model.MaxCaptureBatch())
	h, f, v := uint64(cfg.Hidden), uint64(cfg.FFN), uint64(cfg.Vocab)
	alloc := func(dst *uint64, bytes uint64, what string) error {
		if *dst != 0 {
			return nil
		}
		a, err := inst.proc.Malloc(bytes)
		if err != nil {
			return fmt.Errorf("io buffer %s: %w", what, err)
		}
		*dst = a
		return nil
	}
	mb := uint64(maxBlocksPerSeq(cfg))
	steps := []struct {
		dst   *uint64
		bytes uint64
		what  string
	}{
		{&inst.io.ids, rows * 4, "ids"},
		{&inst.io.meta, (rows*mb + rows) * 4, "meta"},
		{&inst.io.x, rows * h * 4, "x"},
		{&inst.io.norm, rows * h * 4, "norm"},
		{&inst.io.qkv, rows * 3 * h * 4, "qkv"},
		{&inst.io.attnOut, rows * h * 4, "attn_out"},
		{&inst.io.oOut, rows * h * 4, "o_out"},
		{&inst.io.gateUp, rows * 2 * f * 4, "gate_up"},
		{&inst.io.mlpOut, rows * f * 4, "mlp_out"},
		{&inst.io.downOut, rows * h * 4, "down_out"},
		{&inst.io.logits, rows * v * 4, "logits"},
		{&inst.io.aux, rows * v * 4, "aux"},
		{&inst.io.sample, rows * 2 * 4, "sample"},
		{&inst.io.pad, 4, "pad"},
	}
	for _, s := range steps {
		if err := alloc(s.dst, s.bytes, s.what); err != nil {
			return err
		}
	}
	if inst.opts.Model.TrickySeed {
		// Engineer the §4 false positive: an 8-byte sampling seed whose
		// value collides with a live device allocation.
		inst.sampleSeed = inst.io.x
	}
	return nil
}

// stageWeights streams model weights from the SSD array into the
// pre-allocated tensors. Functional models copy real (deterministic)
// bytes; cost-only models charge the transfer time of the published
// parameter size.
func (inst *Instance) stageWeights() error {
	cfg := inst.opts.Model
	done := inst.stageSpan("weights_stream")
	defer done(obs.Attr{Key: "bytes", Value: fmt.Sprint(cfg.LoadBytes())})
	if cfg.Functional {
		for _, spec := range cfg.Tensors() {
			data := cfg.TensorData(spec)
			inst.opts.Store.ChargeRead(inst.proc.Clock(), uint64(len(data)), 1)
			if err := inst.proc.MemcpyHtoD(inst.weights[spec.Name], data); err != nil {
				return fmt.Errorf("load %s: %w", spec.Name, err)
			}
		}
		return nil
	}
	inst.opts.Store.ChargeRead(inst.proc.Clock(), cfg.LoadBytes(), 1)
	return nil
}

// stageTokenizer loads the model's tokenizer.
func (inst *Instance) stageTokenizer() error {
	cfg := inst.opts.Model
	done := inst.stageSpan("tokenizer_load")
	defer done()
	inst.proc.Clock().Advance(tokenizer.LoadDuration(cfg.Vocab))
	tok, err := tokenizer.New(cfg.Vocab)
	if err != nil {
		return err
	}
	inst.tok = tok
	return nil
}
