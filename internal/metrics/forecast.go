package metrics

import (
	"fmt"
	"time"
)

// This file holds the rate estimators the fleet control plane forecasts
// demand with (internal/autoscale): Holt's linear trend method and a
// windowed arrival-rate estimator that feeds virtual-time arrival
// instants into a Holt filter. Nothing here reads a wall clock —
// estimators advance only when fed observations or explicitly rolled
// forward to a virtual instant, so fixed-seed simulations using them
// stay byte-deterministic.

// Holt is Holt's linear (double exponential) smoothing: a level and a
// trend component, so forecasts extrapolate a ramp instead of lagging
// it the way a plain EWMA does. Initialization is the textbook one —
// level₀ = x₀, trend₀ = x₁ − x₀ — under which a perfectly linear
// series is tracked exactly (the unit tests pin this closed form).
// The zero value is unusable; construct with NewHolt.
type Holt struct {
	alpha, beta  float64
	level, trend float64
	first        float64
	n            int
}

// NewHolt returns a Holt smoother with level weight alpha and trend
// weight beta, both in (0, 1].
func NewHolt(alpha, beta float64) (*Holt, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("metrics: Holt alpha must be in (0,1], got %g", alpha)
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("metrics: Holt beta must be in (0,1], got %g", beta)
	}
	return &Holt{alpha: alpha, beta: beta}, nil
}

// Observe feeds one observation.
func (h *Holt) Observe(x float64) {
	switch h.n {
	case 0:
		h.first = x
	case 1:
		h.level = x
		h.trend = x - h.first
	default:
		prev := h.level
		h.level = h.alpha*x + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prev) + (1-h.beta)*h.trend
	}
	h.n++
}

// Level returns the smoothed level. Before two observations it falls
// back to the best available value (the sole observation, or 0).
func (h *Holt) Level() float64 {
	if h.n < 2 {
		return h.first
	}
	return h.level
}

// Trend returns the smoothed per-step slope (0 before two
// observations).
func (h *Holt) Trend() float64 {
	if h.n < 2 {
		return 0
	}
	return h.trend
}

// Forecast extrapolates k steps ahead: level + k·trend. Fractional k
// interpolates within a step.
func (h *Holt) Forecast(k float64) float64 { return h.Level() + k*h.Trend() }

// RateWindow estimates an arrival process's rate on virtual time: it
// counts arrivals into fixed-width windows and feeds each completed
// window's rate (count/width, in events per second) into a Holt
// filter. Windows the process skipped entirely contribute zero-rate
// observations, so the estimate decays through quiet periods instead
// of freezing at the last busy window's rate.
type RateWindow struct {
	width    time.Duration
	holt     *Holt
	winStart time.Duration
	count    int
	last     time.Duration
	observed bool
}

// NewRateWindow returns a windowed rate estimator with the given
// window width and Holt smoothing weights.
func NewRateWindow(width time.Duration, alpha, beta float64) (*RateWindow, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: rate window width must be positive, got %v", width)
	}
	holt, err := NewHolt(alpha, beta)
	if err != nil {
		return nil, err
	}
	return &RateWindow{width: width, holt: holt}, nil
}

// Observe records one arrival at virtual instant t. Arrivals must be
// fed in nondecreasing order (the simulators' event loops guarantee
// this).
func (w *RateWindow) Observe(t time.Duration) {
	w.roll(t)
	w.count++
	w.last = t
	w.observed = true
}

// LastObserved returns the instant of the most recent arrival and
// whether any arrival has been observed at all. The Holt level decays
// gradually through silence; this is the sharp signal — consumers that
// must react to traffic stopping (retiring speculative capacity, say)
// check the gap since the last arrival rather than waiting for the
// smoothed rate to bleed to zero.
func (w *RateWindow) LastObserved() (time.Duration, bool) { return w.last, w.observed }

// roll closes every window that ends at or before t, feeding each
// closed window's rate into the Holt filter.
func (w *RateWindow) roll(t time.Duration) {
	for t >= w.winStart+w.width {
		w.holt.Observe(float64(w.count) / w.width.Seconds())
		w.count = 0
		w.winStart += w.width
	}
}

// RateAt returns the smoothed arrival rate (events/second) as of
// virtual instant t, first closing any windows that completed before
// t. The in-progress window is not included: its partial count would
// bias the rate low early in the window.
func (w *RateWindow) RateAt(t time.Duration) float64 {
	w.roll(t)
	return w.holt.Level()
}

// ForecastAt extrapolates the arrival rate horizon ahead of virtual
// instant t using the Holt trend, clamped at zero (a negative arrival
// rate is meaningless). Windows completed before t are closed first.
func (w *RateWindow) ForecastAt(t, horizon time.Duration) float64 {
	w.roll(t)
	f := w.holt.Forecast(horizon.Seconds() / w.width.Seconds())
	if f < 0 {
		return 0
	}
	return f
}
