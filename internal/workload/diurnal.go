package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// DiurnalConfig shapes a diurnal multi-tenant trace: a sinusoidal rate
// envelope (the day/night cycle production serving sees) modulated by a
// two-state Markov chain of burst episodes (calm ↔ burst with
// exponential sojourns), the Markov-modulated Poisson process the
// bursty-traffic literature uses. The instantaneous rate is
//
//	λ(t) = BaseRPS · (1 + Amplitude·sin(2πt/Period + Phase)) · m(t)
//
// where m(t) is 1 in the calm state and BurstFactor in the burst
// state.
type DiurnalConfig struct {
	// Seed makes the trace reproducible. The burst chain uses Seed+1 so
	// arrival thinning and state sojourns draw from independent streams.
	Seed int64
	// BaseRPS is the mean request rate of the sinusoidal envelope. The
	// peak rate BaseRPS·(1+Amplitude)·BurstFactor must be at most 1e9.
	BaseRPS float64
	// Amplitude in [0, 1) scales the sinusoidal swing: the envelope
	// ranges over BaseRPS·(1±Amplitude).
	Amplitude float64
	// Period is one full day/night cycle.
	Period time.Duration
	// Phase offsets the sinusoid (radians), staggering tenants so their
	// peaks do not align.
	Phase float64
	// BurstFactor multiplies the rate while the burst state is active
	// (1 disables bursts).
	BurstFactor float64
	// MeanBurst is the mean sojourn in the burst state.
	MeanBurst time.Duration
	// MeanCalm is the mean sojourn in the calm state.
	MeanCalm time.Duration
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

func (c DiurnalConfig) withDefaults() (DiurnalConfig, error) {
	if err := checkRate("diurnal BaseRPS", c.BaseRPS); err != nil {
		return c, err
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("workload: diurnal Duration %v must be positive", c.Duration)
	}
	if !(c.Amplitude >= 0 && c.Amplitude < 1) {
		return c, fmt.Errorf("workload: diurnal Amplitude %v must be in [0,1)", c.Amplitude)
	}
	if math.IsNaN(c.Phase) || math.IsInf(c.Phase, 0) {
		return c, fmt.Errorf("workload: diurnal Phase %v must be finite", c.Phase)
	}
	if err := checkLengths(c.MeanPrompt, c.MeanOutput, c.MaxPrompt, c.MaxOutput); err != nil {
		return c, err
	}
	if c.Period <= 0 {
		return c, fmt.Errorf("workload: diurnal period %v must be positive", c.Period)
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = 1
	}
	if !(c.BurstFactor >= 1) || math.IsInf(c.BurstFactor, 1) {
		return c, fmt.Errorf("workload: diurnal BurstFactor %v must be finite and >= 1", c.BurstFactor)
	}
	// Candidates are drawn at the peak rate, which must be a valid rate
	// itself.
	if err := checkRate("diurnal peak rate BaseRPS·(1+Amplitude)·BurstFactor", c.BaseRPS*(1+c.Amplitude)*c.BurstFactor); err != nil {
		return c, err
	}
	if c.BurstFactor > 1 && (c.MeanBurst <= 0 || c.MeanCalm <= 0) {
		return c, fmt.Errorf("workload: burst factor %v needs positive MeanBurst/MeanCalm, got %v/%v",
			c.BurstFactor, c.MeanBurst, c.MeanCalm)
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

// diurnalSource draws a nonhomogeneous Poisson process by thinning:
// candidate arrivals come from a homogeneous process at the envelope's
// peak rate λmax, and each candidate survives with probability
// λ(t)/λmax. The burst chain advances lazily on a dedicated RNG as
// candidates cross sojourn boundaries; because candidate instants are
// nondecreasing, both RNG draw sequences are functions of the config
// alone — fixed seed ⇒ byte-identical trace, streaming or collected.
type diurnalSource struct {
	cfg    DiurnalConfig
	rng    *rand.Rand // candidate gaps, thinning, lengths
	chain  *rand.Rand // burst-state sojourns
	lamMax float64
	// prompt and output are the length distributions of cfg.
	prompt, output lengthDist
	t              time.Duration
	id             int
	done           bool

	inBurst    bool
	sojournEnd time.Duration
}

// NewDiurnal returns a streaming diurnal source.
func NewDiurnal(cfg DiurnalConfig) (Source, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &diurnalSource{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		chain:  rand.New(rand.NewSource(cfg.Seed + 1)),
		lamMax: cfg.BaseRPS * (1 + cfg.Amplitude) * cfg.BurstFactor,
		prompt: newLengthDist(cfg.MeanPrompt, cfg.MaxPrompt),
		output: newLengthDist(cfg.MeanOutput, cfg.MaxOutput),
	}
	if cfg.BurstFactor > 1 {
		d.sojournEnd = d.drawSojourn(false)
	} else {
		d.sojournEnd = cfg.Duration + 1 // calm forever
	}
	return d, nil
}

// drawSojourn draws the length of the next sojourn given the state just
// entered, added onto the current sojourn end. A sojourn that outlasts
// the window ends at Duration, which no candidate reaches, rather than
// overflowing a time.Duration.
func (d *diurnalSource) drawSojourn(burst bool) time.Duration {
	mean := d.cfg.MeanCalm
	if burst {
		mean = d.cfg.MeanBurst
	}
	sojourn := d.chain.ExpFloat64() * float64(mean)
	if sojourn >= float64(d.cfg.Duration-d.sojournEnd) {
		return d.cfg.Duration
	}
	return d.sojournEnd + time.Duration(sojourn)
}

// multiplierAt advances the burst chain to instant t and returns its
// rate multiplier there.
func (d *diurnalSource) multiplierAt(t time.Duration) float64 {
	for t >= d.sojournEnd {
		d.inBurst = !d.inBurst
		d.sojournEnd = d.drawSojourn(d.inBurst)
	}
	if d.inBurst {
		return d.cfg.BurstFactor
	}
	return 1
}

// rateAt evaluates λ(t), advancing the burst chain as a side effect.
func (d *diurnalSource) rateAt(t time.Duration) float64 {
	phase := 2*math.Pi*t.Seconds()/d.cfg.Period.Seconds() + d.cfg.Phase
	return d.cfg.BaseRPS * (1 + d.cfg.Amplitude*math.Sin(phase)) * d.multiplierAt(t)
}

func (d *diurnalSource) Next() (Request, bool) {
	if d.done {
		return Request{}, false
	}
	for {
		if !advance(&d.t, d.rng.ExpFloat64()/d.lamMax*float64(time.Second), d.cfg.Duration) {
			d.done = true
			return Request{}, false
		}
		if d.rng.Float64()*d.lamMax >= d.rateAt(d.t) {
			continue // thinned out
		}
		r := Request{
			ID:           d.id,
			Arrival:      d.t,
			PromptTokens: d.prompt.draw(d.rng),
			OutputTokens: d.output.draw(d.rng),
		}
		d.id++
		return r, true
	}
}

func (d *diurnalSource) Err() error { return nil }

// DiurnalFleet splits cfg's base rate across n tenants with
// Zipf-distributed popularity (tenant i gets weight ∝ (i+1)^−skew;
// skew 0 is a uniform split) and phase-staggers their sinusoids by
// 2π·i/n so tenant peaks roll around the cycle instead of aligning.
// Each tenant draws from an independent seed stride, and the returned
// sources compose with serverless.MergeArrivals for a deterministic
// multi-tenant fleet trace.
func DiurnalFleet(cfg DiurnalConfig, n int, skew float64) ([]Source, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: fleet size %d must be positive", n)
	}
	if !(skew >= 0) || math.IsInf(skew, 1) {
		return nil, fmt.Errorf("workload: zipf skew %v must be finite and >= 0", skew)
	}
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -skew)
		total += weights[i]
	}
	srcs := make([]Source, n)
	for i := range srcs {
		tc := cfg
		tc.Seed = cfg.Seed + int64(i)*2 // stride 2: each source also claims Seed+1 for its chain
		tc.BaseRPS = cfg.BaseRPS * weights[i] / total
		tc.Phase = cfg.Phase + 2*math.Pi*float64(i)/float64(n)
		src, err := NewDiurnal(tc)
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}
	return srcs, nil
}
