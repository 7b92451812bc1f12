package metrics

import (
	"math"
	"testing"
	"time"
)

// TestHoltTracksLinearSeriesExactly pins the closed form the
// predictive autoscaler relies on: with the textbook initialization
// (level₀ = x₀, trend₀ = x₁ − x₀), Holt's method reproduces a
// perfectly linear series x_n = c + m·n exactly — level_n = x_n,
// trend = m, and Forecast(k) = x_n + m·k for every horizon.
func TestHoltTracksLinearSeriesExactly(t *testing.T) {
	const c, m = 5.0, 1.5
	h, err := NewHolt(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for n := 0; n < 40; n++ {
		last = c + m*float64(n)
		h.Observe(last)
	}
	if got := h.Level(); math.Abs(got-last) > 1e-9 {
		t.Fatalf("level = %v, want %v (exact linear tracking)", got, last)
	}
	if got := h.Trend(); math.Abs(got-m) > 1e-9 {
		t.Fatalf("trend = %v, want %v", got, m)
	}
	for _, k := range []float64{0, 1, 2.5, 10} {
		if got, want := h.Forecast(k), last+m*k; math.Abs(got-want) > 1e-9 {
			t.Fatalf("forecast(%v) = %v, want %v", k, got, want)
		}
	}
}

// TestHoltConstantSeries: a flat series must yield zero trend and a
// flat forecast.
func TestHoltConstantSeries(t *testing.T) {
	h, err := NewHolt(0.4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		h.Observe(7)
	}
	if h.Level() != 7 || h.Trend() != 0 {
		t.Fatalf("constant series: level %v trend %v, want 7 and 0", h.Level(), h.Trend())
	}
	if h.Forecast(100) != 7 {
		t.Fatalf("forecast = %v, want 7", h.Forecast(100))
	}
}

// TestHoltEarlyObservations: before two observations the smoother
// degrades gracefully (no NaNs, no panic).
func TestHoltEarlyObservations(t *testing.T) {
	h, err := NewHolt(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Level() != 0 || h.Trend() != 0 || h.Forecast(5) != 0 {
		t.Fatal("empty smoother must report zeros")
	}
	h.Observe(4)
	if h.Level() != 4 || h.Trend() != 0 {
		t.Fatalf("single observation: level %v trend %v, want 4 and 0", h.Level(), h.Trend())
	}
}

func TestHoltRejectsBadWeights(t *testing.T) {
	if _, err := NewHolt(0, 0.5); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewHolt(0.5, 2); err == nil {
		t.Error("beta 2 accepted")
	}
}

// TestRateWindowSteadyRate feeds a metronome arrival process — exactly
// r arrivals per window — and checks the estimator converges to r
// events/second exactly (every window observation equals r, and both
// Holt components are fixed points under constant input).
func TestRateWindowSteadyRate(t *testing.T) {
	const perWindow = 10
	w, err := NewRateWindow(time.Second, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for win := 0; win < 20; win++ {
		base := time.Duration(win) * time.Second
		for i := 0; i < perWindow; i++ {
			w.Observe(base + time.Duration(i)*time.Second/perWindow)
		}
	}
	now := 20 * time.Second
	if got := w.RateAt(now); got != perWindow {
		t.Fatalf("steady rate = %v, want %d exactly", got, perWindow)
	}
	if got := w.ForecastAt(now, 5*time.Second); got != perWindow {
		t.Fatalf("steady forecast = %v, want %d exactly", got, perWindow)
	}
}

// TestRateWindowLinearRamp pins the Holt composition end to end: if
// window n holds (n+1)·k arrivals, the per-window rate series is
// linear, so the estimator must report the last closed window's rate
// exactly and extrapolate the ramp on forecast.
func TestRateWindowLinearRamp(t *testing.T) {
	const k = 4
	width := 500 * time.Millisecond
	w, err := NewRateWindow(width, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wins := 12
	for win := 0; win < wins; win++ {
		base := time.Duration(win) * width
		n := (win + 1) * k
		for i := 0; i < n; i++ {
			w.Observe(base + time.Duration(i)*width/time.Duration(n))
		}
	}
	now := time.Duration(wins) * width
	// Window win's rate is (win+1)·k / 0.5s; the last closed window is
	// wins−1. Slope per window is k/0.5s.
	lastRate := float64(wins*k) / width.Seconds()
	slope := float64(k) / width.Seconds()
	if got := w.RateAt(now); math.Abs(got-lastRate) > 1e-9 {
		t.Fatalf("ramp rate = %v, want %v", got, lastRate)
	}
	// A horizon of 2 windows extrapolates 2 slope steps.
	if got, want := w.ForecastAt(now, 2*width), lastRate+2*slope; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ramp forecast = %v, want %v", got, want)
	}
}

// TestRateWindowDecaysThroughSilence: skipped windows must count as
// zero-rate observations, decaying the estimate instead of freezing
// it.
func TestRateWindowDecaysThroughSilence(t *testing.T) {
	w, err := NewRateWindow(time.Second, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		w.Observe(time.Duration(i) * time.Second / 4) // 4/s for 10s
	}
	busy := w.RateAt(10 * time.Second)
	quiet := w.RateAt(30 * time.Second) // 20 silent windows
	if quiet >= busy {
		t.Fatalf("rate did not decay through silence: busy %v quiet %v", busy, quiet)
	}
	if quiet > 0.1 {
		t.Fatalf("rate after 20 silent windows still %v", quiet)
	}
	// Forecast is clamped at zero even when the trend is negative.
	if f := w.ForecastAt(30*time.Second, time.Minute); f < 0 {
		t.Fatalf("forecast went negative: %v", f)
	}
}

func TestRateWindowRejectsBadWidth(t *testing.T) {
	if _, err := NewRateWindow(0, 0.5, 0.5); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewRateWindow(time.Second, 0, 0.5); err == nil {
		t.Error("bad alpha accepted")
	}
}
