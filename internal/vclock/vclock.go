// Package vclock provides a deterministic virtual clock used by the
// simulated GPU, the inference engine, and the serverless cluster
// simulator. All latencies in this repository are virtual: they model the
// timing of the paper's testbed (A100-40GB GPUs, Optane SSD array) without
// consuming wall-clock time, which keeps experiments fast and exactly
// reproducible.
//
// The clock is single-goroutine by design: simulated work advances it
// explicitly.
package vclock

import (
	"fmt"
	"time"
)

// Clock is a virtual clock. The zero value is a clock at time zero.
type Clock struct {
	now time.Duration
}

// New returns a clock starting at time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time as an offset from the simulation
// origin.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time, like real time, does not run backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now += d
}

// Span measures the virtual duration of fn as observed on c.
func (c *Clock) Span(fn func()) time.Duration {
	start := c.now
	fn()
	return c.now - start
}

// Stopwatch captures an instant on a clock and reports elapsed virtual
// time since then.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// StartWatch returns a stopwatch anchored at the clock's current instant.
func (c *Clock) StartWatch() Stopwatch {
	return Stopwatch{clock: c, start: c.now}
}

// Elapsed reports the virtual time since the stopwatch was started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.now - s.start }
