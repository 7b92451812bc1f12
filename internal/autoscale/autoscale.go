// Package autoscale holds the fleet control plane's scaling policies:
// pluggable deciders for how many instances each deployment should have
// live at a virtual instant. The simulator core checks every deployment
// against its policy's answer at each control tick (arrival, iteration
// end, idle retirement, node crash) and launches until the policy is
// satisfied or the fleet is out of GPUs; placement itself stays with
// the simulator's locality-aware placer (RAM > in-flight > SSD >
// registry), so a scale-up lands on artifact-warm nodes whichever
// policy asked for it.
//
// A policy may say how long its answer holds by implementing Horizon.
// The core keeps each deployment's last answer and asks again only
// when the deployment's outstanding or live count changed or the
// answer's horizon passed. Reactive's answer holds until the counts
// change; Predictive's holds until its next rate-window boundary. A
// policy without Horizon, a wrapper around either included, is asked
// at every tick.
//
// Policies advance only on virtual-time observations — no wall clock,
// no shared RNG — so a fixed-seed simulation renders byte-identically
// whatever policy is plugged in.
package autoscale

import (
	"fmt"
	"math"
	"time"

	"github.com/medusa-repro/medusa/internal/metrics"
)

// Observation is the per-deployment state a policy sees when asked for
// a desired instance count.
type Observation struct {
	// Now is the control tick's virtual instant.
	Now time.Duration
	// Outstanding counts the deployment's unfinished requests (queued +
	// running).
	Outstanding int
	// Live counts the deployment's provisioned instances, including
	// ones still cold-starting.
	Live int
	// InstanceTarget is the outstanding-request count one instance is
	// expected to absorb (Scheduler.InstanceTarget).
	InstanceTarget int
	// ProvisionLatency estimates how long a launch started now takes to
	// become ready — the lead time a predictive policy scales ahead by.
	ProvisionLatency time.Duration
}

// target returns the per-instance absorption target, guarding the
// degenerate zero config.
func (o *Observation) target() int {
	if o.InstanceTarget < 1 {
		return 1
	}
	return o.InstanceTarget
}

// Policy decides how many instances a deployment should have live.
// Implementations must be deterministic functions of the observations
// fed to them; a stateful policy must not be shared across simulation
// runs.
type Policy interface {
	// Name identifies the policy in reports and renders.
	Name() string
	// ObserveArrival feeds one request arrival for the deployment, in
	// nondecreasing time order across calls per deployment.
	ObserveArrival(dep int, t time.Duration)
	// Desired returns how many instances the deployment should have
	// live. Returning less than o.Live asks for nothing: the simulator
	// scales down only by idle-timeout draining, never by killing busy
	// instances. A policy that also implements Retainer can veto that
	// draining to hold warm capacity for forecast traffic.
	Desired(dep int, o Observation) int
}

// Retainer is an optional Policy extension: a scale-down veto. When a
// policy implements it, the simulator keeps an idle instance alive as
// long as retiring it would drop the deployment's live count below the
// Retain floor — capacity held warm for traffic the policy forecasts
// inside a provisioning lead time. Policies that do not implement
// Retainer (the reactive baseline) keep the legacy unconditional
// idle-timeout retirement, byte for byte.
type Retainer interface {
	// Retain returns the minimum live instance count worth holding
	// through idleness at this instant. Implementations must clamp the
	// floor to o.Live: retention only vetoes scale-down, it never
	// launches.
	Retain(dep int, o Observation) int
}

// Horizon is an optional Policy extension: how long an answer holds.
// The simulator core reuses a deployment's last answer until the
// deployment's outstanding or live count changes or the instant Until
// returned is reached; a policy without Horizon is asked at every
// control tick. The core also runs decode steps between the earliest
// of those instants over all deployments as one event, so horizons
// must not move back.
type Horizon interface {
	// Until returns the first instant at or after now at which Desired
	// may answer the deployment differently than it did at now,
	// assuming the deployment's Outstanding and Live stay what they
	// were (InstanceTarget and ProvisionLatency are fixed per
	// deployment). Arrivals observed in between must not bring that
	// instant forward, and a later call for the same deployment must
	// not return an earlier instant (the simulator reports an error).
	// math.MaxInt64 means the answer depends on the counts alone.
	Until(dep int, now time.Duration) time.Duration
}

// Reactive is the baseline policy: one instance per InstanceTarget
// outstanding requests, zero when idle — exactly the formula the
// simulator applied before policies were pluggable, so a reactive run
// is byte-identical to the legacy autoscaler.
type Reactive struct{}

// NewReactive returns the reactive baseline policy.
func NewReactive() *Reactive { return &Reactive{} }

// Name identifies the policy.
func (*Reactive) Name() string { return "reactive" }

// ObserveArrival is a no-op: the reactive policy needs no history.
func (*Reactive) ObserveArrival(int, time.Duration) {}

// Desired implements the legacy formula: ⌈Outstanding/InstanceTarget⌉,
// zero when nothing is outstanding.
func (*Reactive) Desired(_ int, o Observation) int {
	return reactiveDesired(&o)
}

// Until reports that the answer holds for as long as the outstanding
// and live counts do.
func (*Reactive) Until(int, time.Duration) time.Duration { return math.MaxInt64 }

// reactiveDesired takes the observation by pointer: it has too many
// fields to live in registers, and copying it on every call showed in
// the single-pool simulator's profile.
func reactiveDesired(o *Observation) int {
	if o.Outstanding == 0 {
		return 0
	}
	return 1 + (o.Outstanding-1)/o.target()
}

// PredictiveConfig parameterizes the predictive policy's forecaster.
type PredictiveConfig struct {
	// Window is the rate-estimation window width (default 5s).
	Window time.Duration
	// Alpha is the Holt level weight (default 0.5).
	Alpha float64
	// Beta is the Holt trend weight (default 0.3).
	Beta float64
	// MaxStep caps how many instances above the reactive baseline one
	// decision may add (default 2; -1 disables scale-ahead entirely).
	// Ramp provisioning is rate-limited so a burst onset cannot grab
	// the whole fleet's GPUs at once and starve co-located deployments
	// of slots.
	MaxStep int
	// KeepWarm caps the scale-down veto's floor (default 1; -1 disables
	// retention): at most this many idle instances are held warm for
	// forecast traffic. The floor is a pilot light, not rate-sized
	// capacity — right after a burst the smoothed rate is still high
	// while instances sit idle, and holding every one of them would
	// burn GPU-seconds the trough never uses.
	KeepWarm int
}

func (c PredictiveConfig) withDefaults() PredictiveConfig {
	if c.Window == 0 {
		c.Window = 5 * time.Second
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Beta == 0 {
		c.Beta = 0.3
	}
	// -1 opts a knob out entirely; the zero value means "default", so
	// the explicit disable needs its own sentinel.
	switch c.MaxStep {
	case 0:
		c.MaxStep = 2
	case -1:
		c.MaxStep = 0
	}
	switch c.KeepWarm {
	case 0:
		c.KeepWarm = 1
	case -1:
		c.KeepWarm = 0
	}
	return c
}

// Predictive scales ahead of demand ramps: it maintains a windowed
// Holt forecast of each deployment's arrival rate (internal/metrics)
// and provisions for the rate *growth* expected over a launch's lead
// time, on top of the reactive baseline. Only the growth needs new
// capacity ahead of time — traffic already flowing is sized by the
// reactive outstanding-count feedback, and charging the whole forecast
// rate against InstanceTarget would hoard GPUs that co-located
// deployments need (an instance absorbs far more than InstanceTarget
// requests per second; the target is an outstanding-count knob, not a
// throughput). It never asks for less than the reactive baseline, and
// quiet deployments still drain to zero through idle timeouts.
type Predictive struct {
	cfg PredictiveConfig
	win map[int]*metrics.RateWindow
}

// NewPredictive returns a predictive policy with the given forecaster
// parameters (zero values take defaults).
func NewPredictive(cfg PredictiveConfig) (*Predictive, error) {
	cfg = cfg.withDefaults()
	if cfg.Window < 0 {
		return nil, fmt.Errorf("autoscale: window %v must be positive", cfg.Window)
	}
	if cfg.MaxStep < 0 {
		return nil, fmt.Errorf("autoscale: max step %d must be nonnegative (-1 pre-normalization disables scale-ahead)", cfg.MaxStep)
	}
	if cfg.KeepWarm < 0 {
		return nil, fmt.Errorf("autoscale: keep warm %d must be nonnegative (-1 pre-normalization disables retention)", cfg.KeepWarm)
	}
	// Validate the Holt weights eagerly: per-deployment windows are
	// created lazily, and a bad weight must fail at construction, not
	// mid-simulation.
	if _, err := metrics.NewRateWindow(cfg.Window, cfg.Alpha, cfg.Beta); err != nil {
		return nil, err
	}
	return &Predictive{cfg: cfg, win: make(map[int]*metrics.RateWindow)}, nil
}

// Name identifies the policy.
func (*Predictive) Name() string { return "predictive" }

// ObserveArrival feeds one arrival into the deployment's rate window.
func (p *Predictive) ObserveArrival(dep int, t time.Duration) {
	w := p.win[dep]
	if w == nil {
		// Weights were validated at construction; this cannot fail.
		w, _ = metrics.NewRateWindow(p.cfg.Window, p.cfg.Alpha, p.cfg.Beta)
		p.win[dep] = w
	}
	w.Observe(t)
}

// Desired returns the reactive baseline plus ramp headroom: the
// forecast rate growth over the provisioning window, times the lead
// time, divided by the per-instance absorption target — the extra
// requests expected to pile up before a launch started now would be
// ready — capped at MaxStep instances per decision. Flat or falling
// forecasts add nothing.
func (p *Predictive) Desired(dep int, o Observation) int {
	base := reactiveDesired(&o)
	w := p.win[dep]
	if w == nil {
		return base
	}
	lead := o.ProvisionLatency.Seconds()
	// The Holt level can decay below zero through a long silence; a
	// negative rate is meaningless and would fabricate growth against
	// the zero-clamped forecast.
	now := math.Max(w.RateAt(o.Now), 0)
	growth := w.ForecastAt(o.Now, o.ProvisionLatency) - now
	if growth <= 0 || lead <= 0 {
		return base
	}
	extra := int(math.Ceil(growth * lead / float64(o.target())))
	if extra > p.cfg.MaxStep {
		extra = p.cfg.MaxStep
	}
	return base + extra
}

// Until returns the next multiple of Window after now: the forecast
// changes only when the rate window closes a window, and it closes
// them only at those multiples. Closing is lazy and idempotent, so
// skipping calls inside a window leaves the Holt filter fed the same
// rates in the same order. Arrivals inside the window only count
// toward the window still open, which the forecast ignores.
func (p *Predictive) Until(_ int, now time.Duration) time.Duration {
	return now - now%p.cfg.Window + p.cfg.Window
}

// Retain implements the scale-down veto: hold up to KeepWarm idle
// instances (a pilot light, default one) while the forecast expects at
// least one arrival within a provisioning lead — rate·lead ≥ 1.
// Retiring the last warm instance then would force the very cold start
// the forecast already predicts; one warm instance, batching, absorbs
// a burst front while reactive follow-up launches spin up behind it.
// Retention cuts off sharply when traffic stops: two full windows
// without a single arrival zero the floor immediately, rather than
// waiting for the smoothed Holt level to bleed down — a diurnal trough
// keeps trickling requests and stays retained, while end-of-stream
// silence drains the deployment on the baseline's timetable.
func (p *Predictive) Retain(dep int, o Observation) int {
	w := p.win[dep]
	if w == nil {
		return 0
	}
	last, ok := w.LastObserved()
	if !ok || o.Now-last > 2*p.cfg.Window {
		return 0
	}
	lead := o.ProvisionLatency.Seconds()
	rate := math.Max(w.ForecastAt(o.Now, o.ProvisionLatency), 0)
	// One warm instance per whole arrival forecast inside the lead:
	// the floor tapers as a trough deepens instead of snapping from
	// KeepWarm to zero.
	keep := int(rate * lead)
	if keep > p.cfg.KeepWarm {
		keep = p.cfg.KeepWarm
	}
	if keep > o.Live {
		keep = o.Live
	}
	return keep
}

// Parse resolves a policy by CLI name: "reactive" (or empty) and
// "predictive" (default forecaster parameters).
func Parse(name string) (Policy, error) {
	switch name {
	case "", "reactive":
		return NewReactive(), nil
	case "predictive":
		return NewPredictive(PredictiveConfig{})
	}
	return nil, fmt.Errorf("autoscale: unknown policy %q (want reactive or predictive)", name)
}
