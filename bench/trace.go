package main

import (
	"time"

	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// tracer collects what the traced run measures from outside the
// program: wall spans around the public calls the benchmark makes, kept
// in an obs.Tracer as offsets from the tracer's creation, and call
// counts through wrappers around the simulator's pluggable seams. A nil
// *tracer records nothing and wraps nothing, so untraced runs take the
// same code path. The simulator calls the wrappers from a single
// goroutine, so plain counters suffice.
type tracer struct {
	t0    time.Time
	spans *obs.Tracer

	desired, observe, retain, score, arrivals int64
}

// spanNames are the public calls the traced run times.
var spanNames = []string{
	"run", "newprofile", "tracegen", "offline", "encode", "decode",
	"templates", "delta_encode", "decode_v3", "coldstart",
}

// callNames are the seams the traced run counts calls through, in the
// order calls reports them.
var callNames = []string{
	"autoscale_desired", "autoscale_observe", "autoscale_retain", "router_score", "arrivals",
}

func (t *tracer) calls() []int64 {
	return []int64{t.desired, t.observe, t.retain, t.score, t.arrivals}
}

func newTracer() *tracer { return &tracer{t0: now(), spans: obs.NewTracer()} }

// begin opens a span; the returned function closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := now()
	return func() {
		// obs labels its file "virtual clock"; this track says otherwise.
		t.spans.RecordSpan("bench (wall clock)", name, "", start.Sub(t.t0), now().Sub(t.t0))
	}
}

// spanMedianMS is the median duration of the spans called name, in ms
// (0 when none were recorded).
func (t *tracer) spanMedianMS(name string) float64 {
	var ds []float64
	for _, s := range t.spans.Spans() {
		if s.Name == name {
			ds = append(ds, ms(s.Duration()))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

// scaler wraps an autoscaling policy in a call counter. Retainer is
// forwarded only when the inner policy implements it: the simulator
// changes its scale-down path on that type assertion.
func (t *tracer) scaler(p autoscale.Policy) autoscale.Policy {
	if t == nil {
		return p
	}
	c := &countingScaler{inner: p, t: t}
	if r, ok := p.(autoscale.Retainer); ok {
		return &countingRetainer{countingScaler: c, inner: r}
	}
	return c
}

type countingScaler struct {
	inner autoscale.Policy
	t     *tracer
}

func (c *countingScaler) Name() string { return c.inner.Name() }

func (c *countingScaler) ObserveArrival(dep int, at time.Duration) {
	c.t.observe++
	c.inner.ObserveArrival(dep, at)
}

func (c *countingScaler) Desired(dep int, o autoscale.Observation) int {
	c.t.desired++
	return c.inner.Desired(dep, o)
}

type countingRetainer struct {
	*countingScaler
	inner autoscale.Retainer
}

func (c *countingRetainer) Retain(dep int, o autoscale.Observation) int {
	c.t.retain++
	return c.inner.Retain(dep, o)
}

// router wraps a dispatch policy in a call counter. A nil policy (the
// legacy launch-order walk) stays nil.
func (t *tracer) router(p router.Policy) router.Policy {
	if t == nil || p == nil {
		return p
	}
	return &countingRouter{inner: p, t: t}
}

type countingRouter struct {
	inner router.Policy
	t     *tracer
}

func (c *countingRouter) Name() string { return c.inner.Name() }

func (c *countingRouter) Score(cand router.Candidate) float64 {
	c.t.score++
	return c.inner.Score(cand)
}

// source wraps an arrival stream in a counter of delivered arrivals.
func (t *tracer) source(src serverless.ArrivalSource) serverless.ArrivalSource {
	if t == nil {
		return src
	}
	return &countingSource{inner: src, t: t}
}

type countingSource struct {
	inner serverless.ArrivalSource
	t     *tracer
}

func (c *countingSource) Next() (int, workload.Request, bool) {
	dep, req, ok := c.inner.Next()
	if ok {
		c.t.arrivals++
	}
	return dep, req, ok
}

func (c *countingSource) Err() error { return c.inner.Err() }
