package autoscale

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/metrics"
)

// TestReactiveMatchesLegacyFormula pins the baseline to the exact
// formula the simulator used before policies were pluggable: scaling
// with a reactive policy must stay byte-identical to the legacy
// autoscaler, and that starts with these integers.
func TestReactiveMatchesLegacyFormula(t *testing.T) {
	p := NewReactive()
	cases := []struct {
		outstanding, target, want int
	}{
		{0, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{8, 4, 2},
		{9, 4, 3},
		{1, 1, 1},
		{7, 1, 7},
		{3, 0, 3}, // degenerate target guards to 1
	}
	for _, tc := range cases {
		o := Observation{Outstanding: tc.outstanding, InstanceTarget: tc.target}
		if got := p.Desired(0, o); got != tc.want {
			t.Errorf("Desired(outstanding=%d target=%d) = %d, want %d",
				tc.outstanding, tc.target, got, tc.want)
		}
	}
}

// TestPredictiveNeverBelowReactive: whatever the forecast, the
// predictive policy must cover the current backlog at least as well as
// the baseline.
func TestPredictiveNeverBelowReactive(t *testing.T) {
	p, err := NewPredictive(PredictiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReactive()
	o := Observation{Now: time.Second, Outstanding: 9, InstanceTarget: 4, ProvisionLatency: 2 * time.Second}
	if got, base := p.Desired(0, o), r.Desired(0, o); got < base {
		t.Fatalf("predictive %d below reactive %d with no history", got, base)
	}
	// A deployment never observed forecasts nothing: exactly the baseline.
	if got, base := p.Desired(3, o), r.Desired(3, o); got != base {
		t.Fatalf("unobserved deployment: predictive %d, want reactive %d", got, base)
	}
}

// rampArrivals feeds an accelerating stream whose per-window rates are
// exactly linear — window k of width 1s carries 2+4k arrivals — into
// fn for each arrival instant. Holt tracks a linear series exactly, so
// the forecast growth is closed-form.
func rampArrivals(windows int, fn func(t time.Duration)) {
	for k := 0; k < windows; k++ {
		for j := 0; j < 2+4*k; j++ {
			fn(time.Duration(k)*time.Second + time.Duration(j)*time.Millisecond)
		}
	}
}

// TestPredictiveScalesAheadOfRamp: on an accelerating arrival stream
// the policy must provision above the reactive baseline by exactly the
// forecast rate growth over the lead time, divided by the absorption
// target — the formula mirrored here through an identically-fed
// RateWindow so float rounding cannot drift the expectation.
func TestPredictiveScalesAheadOfRamp(t *testing.T) {
	p, err := NewPredictive(PredictiveConfig{Window: time.Second, MaxStep: 100})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := metrics.NewRateWindow(time.Second, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rampArrivals(10, func(at time.Duration) {
		p.ObserveArrival(0, at)
		mirror.Observe(at)
	})
	o := Observation{
		Now:              10 * time.Second,
		Outstanding:      2,
		InstanceTarget:   4,
		ProvisionLatency: 3 * time.Second,
	}
	base := reactiveDesired(&o) // 1
	got := p.Desired(0, o)
	if got <= base {
		t.Fatalf("predictive %d did not scale ahead of the ramp (reactive %d)", got, base)
	}
	growth := mirror.ForecastAt(o.Now, o.ProvisionLatency) - mirror.RateAt(o.Now)
	want := base + int(math.Ceil(growth*o.ProvisionLatency.Seconds()/4))
	// Rates 2,6,…,38 give trend 4/s per 1s window: growth over a 3s
	// lead ≈ 12/s, 36 extra arrivals, 9 instances at target 4.
	if want != base+9 {
		t.Fatalf("mirror computed %d, closed form says %d", want, base+9)
	}
	if got != want {
		t.Fatalf("predictive desired = %d, want %d", got, want)
	}
}

// TestPredictiveStepCap: the default config rate-limits scale-ahead to
// MaxStep instances above the baseline per decision, however steep the
// ramp — one deployment's burst onset must not hoard the fleet's GPUs.
func TestPredictiveStepCap(t *testing.T) {
	p, err := NewPredictive(PredictiveConfig{Window: time.Second}) // MaxStep defaults to 2
	if err != nil {
		t.Fatal(err)
	}
	rampArrivals(10, func(at time.Duration) { p.ObserveArrival(0, at) })
	o := Observation{
		Now:              10 * time.Second,
		Outstanding:      2,
		InstanceTarget:   4,
		ProvisionLatency: 3 * time.Second,
	}
	if got, want := p.Desired(0, o), reactiveDesired(&o)+2; got != want {
		t.Fatalf("capped desired = %d, want %d", got, want)
	}
}

// TestPredictiveSteadyStateMatchesReactive: a flat arrival rate has no
// growth to provision for — the reactive feedback loop already sizes
// steady traffic, and charging the absolute rate against the
// outstanding-count target would hoard capacity.
func TestPredictiveSteadyStateMatchesReactive(t *testing.T) {
	p, err := NewPredictive(PredictiveConfig{Window: time.Second, MaxStep: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p.ObserveArrival(0, time.Duration(i)*100*time.Millisecond) // 10/s for 20s
	}
	o := Observation{
		Now:              20 * time.Second,
		Outstanding:      6,
		InstanceTarget:   4,
		ProvisionLatency: 4 * time.Second,
	}
	if got, want := p.Desired(0, o), reactiveDesired(&o); got != want {
		t.Fatalf("steady-state desired = %d, want reactive %d", got, want)
	}
}

// TestPredictiveDrainsWhenQuiet: with no backlog and a decayed
// forecast, the policy must return to zero so idle instances retire.
func TestPredictiveDrainsWhenQuiet(t *testing.T) {
	p, err := NewPredictive(PredictiveConfig{Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.ObserveArrival(0, time.Duration(i)*100*time.Millisecond) // 10/s for 5s
	}
	o := Observation{
		Now:              5 * time.Minute, // long silence
		Outstanding:      0,
		InstanceTarget:   4,
		ProvisionLatency: 4 * time.Second,
	}
	if got := p.Desired(0, o); got != 0 {
		t.Fatalf("quiet deployment still wants %d instances", got)
	}
}

// TestPredictiveDeterministic: identical observation sequences must
// produce identical decisions.
func TestPredictiveDeterministic(t *testing.T) {
	mk := func() []int {
		p, err := NewPredictive(PredictiveConfig{Window: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * 137 * time.Millisecond
			p.ObserveArrival(i%3, at)
			out = append(out, p.Desired(i%3, Observation{
				Now: at, Outstanding: i % 7, InstanceTarget: 4,
				ProvisionLatency: 3 * time.Second,
			}))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"", "reactive"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name() != "reactive" {
			t.Fatalf("Parse(%q) = %q", name, p.Name())
		}
	}
	p, err := Parse("predictive")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "predictive" {
		t.Fatalf("Parse(predictive) = %q", p.Name())
	}
	if _, err := Parse("oracle"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPredictiveRejectsBadConfig(t *testing.T) {
	if _, err := NewPredictive(PredictiveConfig{Alpha: 2}); err == nil {
		t.Fatal("alpha 2 accepted")
	}
	if _, err := NewPredictive(PredictiveConfig{Beta: -1}); err == nil {
		t.Fatal("beta -1 accepted")
	}
	if _, err := NewPredictive(PredictiveConfig{MaxStep: -3}); err == nil {
		t.Fatal("max step -3 accepted")
	}
}

// TestHorizonHoldsAnswer is the Horizon contract as a property: for
// random arrival sequences, a policy asked only when a deployment's
// Outstanding or Live changed or its last answer's Until instant was
// reached answers exactly like an identically fed policy asked at
// every instant. Arrivals land between the asks, as they do in the
// simulator core. Each horizon must also be no earlier than the one
// before it.
func TestHorizonHoldsAnswer(t *testing.T) {
	type policy interface {
		Policy
		Horizon
	}
	mk := func(window time.Duration) []policy {
		var out []policy
		for i := 0; i < 2; i++ {
			p, err := NewPredictive(PredictiveConfig{Window: window, MaxStep: 100})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return append(out, NewReactive(), NewReactive())
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		window := time.Duration(1+rng.Intn(4)) * 500 * time.Millisecond
		ps := mk(window)
		lead := time.Duration(1+rng.Intn(4)) * time.Second
		type held struct {
			answer, outstanding, live int
			until                     time.Duration
			asked                     bool
		}
		var last [2][2]held // [policy pair][dep]
		now, reused, ahead := time.Duration(0), 0, 0
		for step := 0; step < 2000; step++ {
			// The mean gap cycles through 1–41 ms, so the forecast
			// sees the rate fall and then jump back up.
			meanGap := time.Duration(1+8*((step/150)%6)) * time.Millisecond
			now += time.Duration(rng.Int63n(int64(2 * meanGap)))
			dep := rng.Intn(2)
			if rng.Intn(3) > 0 {
				for _, p := range ps {
					p.ObserveArrival(dep, now)
				}
				continue
			}
			o := Observation{Now: now, Outstanding: rng.Intn(3), Live: rng.Intn(2),
				InstanceTarget: 2, ProvisionLatency: lead}
			for pair := 0; pair < 2; pair++ {
				full, cached := ps[2*pair], ps[2*pair+1]
				want := full.Desired(dep, o)
				h := &last[pair][dep]
				if !h.asked || h.outstanding != o.Outstanding || h.live != o.Live || now >= h.until {
					h.answer = cached.Desired(dep, o)
					until := cached.Until(dep, now)
					if until < now || until < h.until {
						t.Fatalf("%s: Until(%v) = %v, before now or the previous horizon %v", cached.Name(), now, until, h.until)
					}
					h.until = until
					h.outstanding, h.live, h.asked = o.Outstanding, o.Live, true
				} else {
					reused++
				}
				if h.answer != want {
					t.Fatalf("trial %d step %d %s dep %d at %v: reused answer %d, asked %d (held until %v)",
						trial, step, cached.Name(), dep, now, h.answer, want, h.until)
				}
				if pair == 0 && want > reactiveDesired(&o) {
					ahead++
				}
			}
		}
		if reused == 0 || ahead == 0 {
			t.Fatalf("trial %d too tame: %d reused answers, %d scale-ahead answers", trial, reused, ahead)
		}
	}
}
