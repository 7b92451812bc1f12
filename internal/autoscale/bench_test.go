package autoscale

import (
	"math"
	"testing"
	"time"
)

// diurnalObservation is one fleet-diurnal deployment at a control
// tick a minute in, on a rising ramp: a backlog of 37 over 6 live
// instances.
var diurnalObservation = Observation{
	Now: time.Minute, Outstanding: 37, Live: 6,
	InstanceTarget: 8, ProvisionLatency: 3 * time.Second,
}

// fedPredictive returns the fleet-diurnal workload's predictive policy
// (2 s windows) after a minute of one tenant's traffic: a quarter of
// its 440 RPS on a one-minute sinusoid of amplitude 0.8, evenly spaced
// at the instantaneous rate.
func fedPredictive(tb testing.TB) *Predictive {
	tb.Helper()
	p, err := NewPredictive(PredictiveConfig{Window: 2 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	for t := time.Duration(0); t < time.Minute; {
		p.ObserveArrival(0, t)
		rate := 110 * (1 + 0.8*math.Sin(2*math.Pi*t.Seconds()/60))
		t += time.Duration(float64(time.Second) / rate)
	}
	return p
}

func BenchmarkReactiveDesired(b *testing.B) {
	p := NewReactive()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Desired(0, diurnalObservation)
	}
}

func BenchmarkPredictiveDesired(b *testing.B) {
	p := fedPredictive(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Desired(0, diurnalObservation)
	}
}

// TestDesiredAllocatesNothing: both policies answer the benchmarks'
// observation without allocating, and the fed predictive policy asks
// for more than the reactive baseline there, so its benchmark times
// the forecast path and not the early return.
func TestDesiredAllocatesNothing(t *testing.T) {
	reactive, predictive := NewReactive(), fedPredictive(t)
	if got, base := predictive.Desired(0, diurnalObservation), reactive.Desired(0, diurnalObservation); got <= base {
		t.Fatalf("predictive Desired %d, want above the reactive %d on a rising ramp", got, base)
	}
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, p := range []Policy{reactive, predictive} {
		if n := testing.AllocsPerRun(100, func() { p.Desired(0, diurnalObservation) }); n != 0 {
			t.Errorf("%s Desired allocated %v times per call, want 0", p.Name(), n)
		}
	}
}
