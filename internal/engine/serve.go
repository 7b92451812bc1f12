package engine

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/kvcache"
)

// EnsureGraphCaptured lazily captures the graph covering `n` sequences
// — the deferred-capture strategy's serving-path work (§2.4). It
// returns the virtual time spent (zero when the graph already exists).
func (inst *Instance) EnsureGraphCaptured(n int) (time.Duration, error) {
	gb := inst.GraphBatch(n)
	if _, ok := inst.graphs[gb]; ok {
		return 0, nil
	}
	var err error
	d := inst.proc.Clock().Span(func() { err = inst.warmupAndCapture(gb) })
	if err != nil {
		return 0, fmt.Errorf("engine: deferred capture (batch %d): %w", gb, err)
	}
	// Invalidate any eager-path memoization for this graph batch.
	delete(inst.decodeDur, gb)
	return d, nil
}

// GraphBatch returns the captured batch size serving `n` concurrent
// sequences: the smallest capture size covering n, like vLLM's padded
// graph dispatch.
func (inst *Instance) GraphBatch(n int) int {
	best := 0
	for _, b := range inst.opts.CaptureSizes {
		if b >= n && (best == 0 || b < best) {
			best = b
		}
	}
	if best == 0 {
		best = maxInt(inst.opts.CaptureSizes)
	}
	return best
}

// DecodeStepDuration measures (and memoizes) one decode iteration for
// `n` concurrent sequences: a single graph replay when graphs exist,
// per-kernel launches otherwise. This is the quantity Figure 3's
// acceleration comes from.
func (inst *Instance) DecodeStepDuration(n int) (time.Duration, error) {
	gb := inst.GraphBatch(n)
	if d, ok := inst.decodeDur[gb]; ok {
		return d, nil
	}
	if err := inst.primeDecodeInputs(gb, 1); err != nil {
		return 0, err
	}
	step := func() error {
		if ge, ok := inst.graphs[gb]; ok {
			return ge.Launch(inst.stream)
		}
		return inst.launchDecodeForward(gb)
	}
	// First run separately: it may pay one-time lazy module loads
	// (graph-less instances load decode kernels at first request).
	// Steady-state per-iteration cost is the second run.
	if err := step(); err != nil {
		return 0, fmt.Errorf("engine: decode step (batch %d): %w", gb, err)
	}
	var err error
	d := inst.proc.Clock().Span(func() { err = step() })
	if err != nil {
		return 0, fmt.Errorf("engine: decode step (batch %d): %w", gb, err)
	}
	inst.decodeDur[gb] = d
	return d, nil
}

// prefillRound quantizes prompt lengths for memoization.
func prefillRound(tokens int) int {
	if tokens < 32 {
		return 32
	}
	return (tokens + 31) &^ 31
}

// PrefillDuration measures (and memoizes) a prefill of the given
// prompt length. Prefill runs eagerly (vLLM does not capture prefill
// into CUDA graphs), so every strategy pays the same cost here.
func (inst *Instance) PrefillDuration(tokens int) (time.Duration, error) {
	t := prefillRound(tokens)
	if t > inst.opts.Model.MaxSeqLen {
		t = inst.opts.Model.MaxSeqLen
	}
	if inst.opts.Model.Functional && t > 16 {
		t = 16
	}
	if d, ok := inst.prefillDur[t]; ok {
		return d, nil
	}
	// One warm run absorbs lazy module loads (a Medusa instance skips
	// profiling, so prefill kernels first load at serving time).
	if err := inst.prefillLaunches(t); err != nil {
		return 0, fmt.Errorf("engine: prefill (%d tokens): %w", t, err)
	}
	var err error
	d := inst.proc.Clock().Span(func() { err = inst.prefillLaunches(t) })
	if err != nil {
		return 0, fmt.Errorf("engine: prefill (%d tokens): %w", t, err)
	}
	inst.prefillDur[t] = d
	return d, nil
}

// FirstTokenServeDuration is the time from request dispatch on a warm
// instance to its first output token: scheduler overhead, prefill, and
// one decode step.
func (inst *Instance) FirstTokenServeDuration(promptTokens int) (time.Duration, error) {
	p, err := inst.PrefillDuration(promptTokens)
	if err != nil {
		return 0, err
	}
	d, err := inst.DecodeStepDuration(1)
	if err != nil {
		return 0, err
	}
	return firstTokenOverhead + p + d, nil
}

// RunValidationForward primes deterministic inputs for the batch,
// replays its graph, and returns the observable output — the engine
// half of the paper's validation forwarding (§4). Functional models
// only.
func (inst *Instance) RunValidationForward(batch int, step uint32) ([]byte, error) {
	if !inst.opts.Model.Functional {
		return nil, fmt.Errorf("engine: validation forwarding needs a functional model")
	}
	ge, ok := inst.graphs[batch]
	if !ok {
		return nil, fmt.Errorf("engine: no graph for batch %d", batch)
	}
	if err := inst.primeDecodeInputs(batch, step); err != nil {
		return nil, err
	}
	if err := ge.Launch(inst.stream); err != nil {
		return nil, err
	}
	return inst.sampleSnapshot(batch)
}

// Generate runs an end-to-end generation on a functional instance:
// tokenize, per-token prefill through the decode path (filling the
// paged KV cache), then greedy decode until maxNew tokens or the
// context limit.
func (inst *Instance) Generate(prompt string, maxNew int) (string, error) {
	if !inst.opts.Model.Functional {
		return "", fmt.Errorf("engine: Generate needs a functional model")
	}
	if maxNew < 1 {
		return "", fmt.Errorf("engine: maxNew = %d", maxNew)
	}
	ids := inst.tok.Encode(prompt)
	if len(ids) == 0 {
		ids = []uint32{0}
	}
	var seq kvcache.Seq
	defer inst.kvMgr.Release(&seq)

	var next uint32
	var err error
	for _, id := range ids {
		next, err = inst.stepToken(&seq, id)
		if err != nil {
			return "", err
		}
	}
	out := make([]uint32, 0, maxNew)
	for i := 0; i < maxNew; i++ {
		out = append(out, next)
		if seq.Len()+1 > inst.opts.Model.MaxSeqLen {
			break
		}
		if i+1 < maxNew {
			next, err = inst.stepToken(&seq, next)
			if err != nil {
				return "", err
			}
		}
	}
	return inst.tok.Decode(out), nil
}

// stepToken feeds one token through a batch-1 decode iteration and
// returns the greedily sampled next token.
func (inst *Instance) stepToken(seq *kvcache.Seq, token uint32) (uint32, error) {
	if err := inst.kvMgr.Append(seq, 1); err != nil {
		return 0, err
	}
	cfg := inst.opts.Model
	dev := inst.proc.Device()
	ids, _, _ := dev.FindBuffer(inst.io.ids)
	meta, _, _ := dev.FindBuffer(inst.io.meta)
	if ids == nil || meta == nil {
		return 0, fmt.Errorf("engine: io buffers missing")
	}
	if err := ids.SetUint32(0, token%uint32(cfg.Vocab)); err != nil {
		return 0, err
	}
	mb := maxBlocksPerSeq(cfg)
	bt := seq.Table()
	if len(bt) > mb {
		return 0, fmt.Errorf("engine: sequence exceeds %d blocks", mb)
	}
	for i, blk := range bt {
		if err := meta.SetUint32(i, uint32(blk)); err != nil {
			return 0, err
		}
	}
	if err := meta.SetUint32(metaSeqlenOffset(cfg, 1), uint32(seq.Len())); err != nil {
		return 0, err
	}
	if ge, ok := inst.graphs[inst.GraphBatch(1)]; ok {
		if err := ge.Launch(inst.stream); err != nil {
			return 0, err
		}
	} else if err := inst.launchDecodeForward(inst.GraphBatch(1)); err != nil {
		return 0, err
	}
	sample, _, _ := dev.FindBuffer(inst.io.sample)
	if sample == nil {
		return 0, fmt.Errorf("engine: sample buffer missing")
	}
	return sample.Uint32(0)
}
