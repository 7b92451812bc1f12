// Package workload generates the request traces of the paper's §7.5:
// ShareGPT-shaped conversations (average prompt 161 tokens, average
// output 338 tokens) arriving as a Poisson process at a configurable
// request rate.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ShareGPT's published averages, used throughout the evaluation.
const (
	ShareGPTMeanPrompt = 161
	ShareGPTMeanOutput = 338
)

// Request is one inference request.
type Request struct {
	// ID is the request's ordinal in the trace.
	ID int
	// Arrival is the request's arrival instant.
	Arrival time.Duration
	// PromptTokens is the prompt length.
	PromptTokens int
	// OutputTokens is the number of tokens to generate.
	OutputTokens int
}

// TraceConfig parameterizes a synthetic trace.
type TraceConfig struct {
	// Seed makes the trace reproducible.
	Seed int64
	// RPS is the mean request rate (Poisson): finite, positive and at
	// most 1e9 (one request per nanosecond), like every rate here.
	RPS float64
	// Duration is the arrival window.
	Duration time.Duration
	// MeanPrompt is the prompt-length mean (default: ShareGPT's 161).
	MeanPrompt int
	// MeanOutput is the output-length mean (default: ShareGPT's 338).
	MeanOutput int
	// MaxPrompt clamps prompt lengths (default 2048).
	MaxPrompt int
	// MaxOutput clamps output lengths (default 1024).
	MaxOutput int
}

func (c TraceConfig) withDefaults() (TraceConfig, error) {
	if err := checkRate("RPS", c.RPS); err != nil {
		return c, err
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("workload: Duration %v must be positive", c.Duration)
	}
	if err := checkLengths(c.MeanPrompt, c.MeanOutput, c.MaxPrompt, c.MaxOutput); err != nil {
		return c, err
	}
	if c.MeanPrompt == 0 {
		c.MeanPrompt = ShareGPTMeanPrompt
	}
	if c.MeanOutput == 0 {
		c.MeanOutput = ShareGPTMeanOutput
	}
	if c.MaxPrompt == 0 {
		c.MaxPrompt = 2048
	}
	if c.MaxOutput == 0 {
		c.MaxOutput = 1024
	}
	return c, nil
}

// maxRate is the highest request rate a generator accepts: one arrival
// per nanosecond, the resolution of time.Duration. Faster rates draw
// gaps that truncate to zero, so the stream's clock would stall.
const maxRate = 1e9

// checkRate rejects a rate that is not a finite number in (0, maxRate],
// naming the field: a NaN or infinite rate would stream forever.
func checkRate(field string, v float64) error {
	if !(v > 0 && v <= maxRate) {
		return fmt.Errorf("workload: %s must be finite, positive and at most %g, got %v", field, maxRate, v)
	}
	return nil
}

// checkLengths rejects negative length means and clamps (0 selects the
// default).
func checkLengths(meanPrompt, meanOutput, maxPrompt, maxOutput int) error {
	if meanPrompt < 0 || meanOutput < 0 || maxPrompt < 0 || maxOutput < 0 {
		return fmt.Errorf("workload: MeanPrompt %d, MeanOutput %d, MaxPrompt %d and MaxOutput %d must be ≥ 0",
			meanPrompt, meanOutput, maxPrompt, maxOutput)
	}
	return nil
}

// lengthSigma is the log-normal shape parameter for both length
// distributions; ShareGPT lengths are heavy-tailed.
const lengthSigma = 0.85

// lengthDist is a log-normal length distribution with the given mean,
// clamped to [1, max]. The location parameter is fixed per source, so
// it is computed once rather than for every draw.
type lengthDist struct {
	mu  float64
	max int
}

func newLengthDist(mean, max int) lengthDist {
	return lengthDist{mu: math.Log(float64(mean)) - lengthSigma*lengthSigma/2, max: max}
}

// draw samples one length.
func (l lengthDist) draw(rng *rand.Rand) int { return l.length(rng.NormFloat64()) }

// length transforms one standard normal draw into a length. Drawing
// (rng.NormFloat64) and transforming are separate so that a candidate
// the bursty source discards advances the RNG without paying for the
// transform.
func (l lengthDist) length(z float64) int {
	v := int(math.Round(math.Exp(z*lengthSigma + l.mu)))
	if v < 1 {
		v = 1
	}
	if v > l.max {
		v = l.max
	}
	return v
}

// Generate produces a Poisson trace by draining NewPoisson — the
// slice-based convenience form for workloads small enough to hold in
// memory.
func Generate(cfg TraceConfig) ([]Request, error) {
	src, err := NewPoisson(cfg)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// BurstConfig shapes a bursty trace: a base rate with periodic bursts,
// modelling the 10–20× fluctuations within 30-second windows the paper
// cites from production LLM serving.
type BurstConfig struct {
	// Seed makes the trace reproducible.
	Seed int64
	// BaseRPS is the steady request rate between bursts.
	BaseRPS float64
	// BurstRPS is the request rate during a burst window.
	BurstRPS float64
	// Period is one base+burst cycle.
	Period time.Duration
	// BurstLen is the burst portion of the cycle.
	BurstLen time.Duration
	// Duration is the arrival window.
	Duration time.Duration
	// MeanPrompt is the prompt-length mean (default: ShareGPT's 161).
	MeanPrompt int
	// MeanOutput is the output-length mean (default: ShareGPT's 338).
	MeanOutput int
}

func (c BurstConfig) validate() error {
	if err := checkRate("BaseRPS", c.BaseRPS); err != nil {
		return err
	}
	if err := checkRate("BurstRPS", c.BurstRPS); err != nil {
		return err
	}
	if c.Period <= 0 || c.BurstLen <= 0 || c.BurstLen >= c.Period {
		return fmt.Errorf("workload: burst length %v must be within period %v", c.BurstLen, c.Period)
	}
	if c.BurstRPS < c.BaseRPS {
		return fmt.Errorf("workload: burst RPS %v below base %v", c.BurstRPS, c.BaseRPS)
	}
	return nil
}

// GenerateBursty produces a trace alternating between base and burst
// rates by draining NewBursty.
func GenerateBursty(cfg BurstConfig) ([]Request, error) {
	src, err := NewBursty(cfg)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}
