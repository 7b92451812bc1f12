package workload

import (
	"math/rand"
	"time"
)

// Source is a pull-based request stream, the form the simulators
// consume traces in at scale: a 10M-request run draws arrivals one at a
// time instead of materializing the whole trace up front, so trace
// memory is O(1) in trace length. Sources emit requests in
// nondecreasing arrival order with IDs assigned in emission order.
type Source interface {
	// Next returns the next request and true, or a zero Request and
	// false once the stream is exhausted (or failed — check Err).
	Next() (Request, bool)
	// Err reports the error that terminated the stream early, if any.
	// It is meaningful once Next has returned false.
	Err() error
}

// Collect drains a source into a slice — the bridge from the streaming
// world back to the slice-based API for small traces and tests.
func Collect(src Source) ([]Request, error) {
	var out []Request
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// poissonSource draws the same (gap, prompt, output) sequence Generate
// always has, one request per pull.
type poissonSource struct {
	cfg TraceConfig
	rng *rand.Rand
	// prompt and output are the length distributions of cfg.
	prompt, output lengthDist
	t              time.Duration
	id             int
	done           bool
}

// NewPoisson returns a streaming Poisson source. Draining it yields
// exactly the trace Generate returns for the same config: both run the
// same RNG draw sequence, so slice-based and streaming consumers see
// byte-identical workloads at a fixed seed.
func NewPoisson(cfg TraceConfig) (Source, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &poissonSource{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		prompt: newLengthDist(cfg.MeanPrompt, cfg.MaxPrompt),
		output: newLengthDist(cfg.MeanOutput, cfg.MaxOutput)}, nil
}

func (p *poissonSource) Next() (Request, bool) {
	at, zPrompt, zOutput, ok := p.candidate()
	if !ok {
		return Request{}, false
	}
	r := Request{
		ID:           p.id,
		Arrival:      at,
		PromptTokens: p.prompt.length(zPrompt),
		OutputTokens: p.output.length(zOutput),
	}
	p.id++
	return r, true
}

// candidate advances the stream by one request without shaping it: it
// draws the gap and the two standard normals the prompt and output
// lengths transform, in the order Next always has. ok is false once the
// stream passes its duration.
func (p *poissonSource) candidate() (at time.Duration, zPrompt, zOutput float64, ok bool) {
	if p.done {
		return 0, 0, 0, false
	}
	if !advance(&p.t, p.rng.ExpFloat64()/p.cfg.RPS*float64(time.Second), p.cfg.Duration) {
		p.done = true
		return 0, 0, 0, false
	}
	return p.t, p.rng.NormFloat64(), p.rng.NormFloat64(), true
}

// advance moves a stream's clock t by a gap of gapNS nanoseconds and
// reports true, or reports false, leaving t alone, when the gap reaches
// the window's end. The float gap is compared before it is converted,
// so a gap too large for a time.Duration (a tiny rate) ends the stream
// instead of overflowing into a negative arrival.
func advance(t *time.Duration, gapNS float64, end time.Duration) bool {
	if gapNS >= float64(end-*t) {
		return false
	}
	*t += time.Duration(gapNS)
	return true
}

func (p *poissonSource) Err() error { return nil }

// SliceSource adapts an in-memory trace to the Source interface.
type SliceSource struct {
	reqs []Request
	i    int
}

// NewSlice wraps an already-materialized trace. Requests are emitted
// as-is (IDs included), in slice order.
func NewSlice(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next emits the next request in slice order.
func (s *SliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// Err always reports nil: an in-memory trace cannot fail.
func (s *SliceSource) Err() error { return nil }

// burstySource merges a base-rate stream with a burst-window-filtered
// extra stream, renumbering in merged order. Ties go to the base
// stream; arrival instants carry fractional nanoseconds from
// independent exponential draws, so cross-stream ties do not occur in
// practice and the merged order matches what sorting the concatenated
// traces produces.
type burstySource struct {
	cfg  BurstConfig
	base Source
	// ext is the extra stream at the burst-minus-base rate (nil when the
	// two rates are equal). Most of its candidates fall outside a burst
	// window and are discarded before their lengths are computed.
	ext     *poissonSource
	baseReq Request
	extReq  Request
	baseOK  bool
	extOK   bool
	id      int
}

// NewBursty returns a streaming bursty source: a base Poisson rate with
// periodic bursts, modelling the 10–20× fluctuations within 30-second
// windows the paper cites from production LLM serving. Draining it
// yields exactly what GenerateBursty returns for the same config. With
// equal burst and base rates there is no extra stream and the trace is
// the flat base-rate one.
func NewBursty(cfg BurstConfig) (Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base, err := NewPoisson(TraceConfig{
		Seed: cfg.Seed, RPS: cfg.BaseRPS, Duration: cfg.Duration,
		MeanPrompt: cfg.MeanPrompt, MeanOutput: cfg.MeanOutput,
	})
	if err != nil {
		return nil, err
	}
	b := &burstySource{cfg: cfg, base: base}
	if extra := cfg.BurstRPS - cfg.BaseRPS; extra > 0 {
		ext, err := NewPoisson(TraceConfig{
			Seed: cfg.Seed + 1, RPS: extra, Duration: cfg.Duration,
			MeanPrompt: cfg.MeanPrompt, MeanOutput: cfg.MeanOutput,
		})
		if err != nil {
			return nil, err
		}
		b.ext = ext.(*poissonSource)
	}
	b.baseReq, b.baseOK = b.base.Next()
	b.advanceExt()
	return b, nil
}

// advanceExt pulls the extra stream forward to its next request inside
// a burst window. Only that request's lengths are computed; the
// candidates before it advance the RNG alone.
func (b *burstySource) advanceExt() {
	b.extOK = false
	if b.ext == nil {
		return
	}
	for {
		at, zPrompt, zOutput, ok := b.ext.candidate()
		if !ok {
			return
		}
		if at%b.cfg.Period < b.cfg.BurstLen {
			b.extReq = Request{
				Arrival:      at,
				PromptTokens: b.ext.prompt.length(zPrompt),
				OutputTokens: b.ext.output.length(zOutput),
			}
			b.extOK = true
			return
		}
	}
}

func (b *burstySource) Next() (Request, bool) {
	var r Request
	switch {
	case b.baseOK && (!b.extOK || b.baseReq.Arrival <= b.extReq.Arrival):
		r = b.baseReq
		b.baseReq, b.baseOK = b.base.Next()
	case b.extOK:
		r = b.extReq
		b.advanceExt()
	default:
		return Request{}, false
	}
	r.ID = b.id
	b.id++
	return r, true
}

func (b *burstySource) Err() error { return nil }
