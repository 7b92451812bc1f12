// Package faults is the deterministic fault-injection subsystem: a
// seeded, virtual-clock-driven Injector configured from a Plan that
// decides — per injection site and per key — whether an artifact read
// is corrupt, a registry fetch times out, an SSD read errors, a
// restore validation mismatches, or a cluster node crashes at a given
// virtual instant. The paper's §4 safety story is that materialized
// state is never trusted blindly: whenever validation fails, the
// system "falls back to the vanilla cold start". This package supplies
// the failures; storage, artifactcache, serverless and cluster supply
// the survival paths (see FAILURES.md for the full catalog).
//
// Determinism is the design constraint everything here serves. The
// injector draws no shared random stream: every decision is a pure
// hash of (plan seed, site, key, per-(site, key) draw counter), so the
// outcome of the Nth draw at a site/key pair is a function of the plan
// alone — independent of goroutine interleaving, GOMAXPROCS, and the
// order other sites consumed draws. Backoff jitter is derived the same
// way and advances only virtual clocks. Fixed seed + fixed plan ⇒
// byte-identical simulation results, the same contract every other
// subsystem honors.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Site names one fault-injection point. Sites are stable identifiers:
// plans reference them, counters embed them, and FAILURES.md documents
// one recovery path per site.
type Site string

const (
	// SiteArtifactCorrupt corrupts an artifact's bytes: the per-section
	// checksum verification on load surfaces an ArtifactCorruptError
	// and the instance degrades to the vanilla cold start.
	SiteArtifactCorrupt Site = "artifact_corrupt"
	// SiteRegistryTimeout stalls a remote registry fetch until its
	// deadline. Budgeted retries with capped exponential backoff run on
	// the virtual clock; exhausting them yields a FetchTimeoutError and
	// the launch degrades to the vanilla cold start.
	SiteRegistryTimeout Site = "registry_timeout"
	// SiteSSDRead fails a local SSD read (a cacheless launch's artifact
	// read, or the SSD tier of a node cache, which falls through to the
	// registry).
	SiteSSDRead Site = "ssd_read"
	// SiteRestoreMismatch makes a Medusa restore's validation diverge:
	// the replayed allocation sequence no longer matches the artifact,
	// so the instance discards the restore and degrades to the vanilla
	// cold start — §4's fallback. No error is returned; the launch
	// records ReasonRestoreMismatch.
	SiteRestoreMismatch Site = "restore_mismatch"
	// SiteTemplateMissing makes the shared architecture template of a
	// template+delta deployment vanish from the registry (a
	// TemplateMissingError): the per-model delta alone cannot be
	// restored, so the launch degrades to the vanilla cold start.
	// Fires only for deployments using template-factored artifacts.
	SiteTemplateMissing Site = "template_missing"
)

// Sites lists every injection site in documentation order.
func Sites() []Site {
	return []Site{SiteArtifactCorrupt, SiteRegistryTimeout, SiteSSDRead, SiteRestoreMismatch, SiteTemplateMissing}
}

// Degradation reasons recorded on Results when a launch survives an
// injected fault by falling back to the vanilla cold-start stages.
const (
	// ReasonCorruptArtifact marks a launch whose fetched artifact
	// failed checksum verification.
	ReasonCorruptArtifact = "artifact_corrupt"
	// ReasonRestoreMismatch marks a launch whose restore validation
	// diverged mid-replay.
	ReasonRestoreMismatch = "restore_mismatch"
	// ReasonFetchTimeout marks a launch whose registry fetch exhausted
	// its retry budget.
	ReasonFetchTimeout = "fetch_timeout"
	// ReasonSSDReadFailed marks a launch whose local artifact read
	// exhausted its retry budget.
	ReasonSSDReadFailed = "ssd_read_failed"
	// ReasonTemplateMissing marks a launch whose delta-encoded artifact
	// referenced a template absent from the registry.
	ReasonTemplateMissing = "template_missing"
	// ReasonTemplateMismatch marks a launch whose delta-encoded
	// artifact pinned a different template than the registry served
	// (CRC or format-version skew).
	ReasonTemplateMismatch = "template_mismatch"
	// ReasonCorruptTemplate marks a launch whose fetched architecture
	// template failed checksum verification.
	ReasonCorruptTemplate = "template_corrupt"
)

// Duration is a time.Duration that marshals to and from JSON as a Go
// duration string ("150ms", "2s"), so hand-written plan files stay
// readable. Plain JSON numbers are accepted too (nanoseconds).
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(p []byte) error {
	var s string
	if err := json.Unmarshal(p, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(p), 10, 64)
	if err != nil {
		return fmt.Errorf("faults: duration must be a string or integer nanoseconds, got %s", p)
	}
	*d = Duration(n)
	return nil
}

// SiteSpec configures one injection site. Probability and Every
// compose: a draw fires if either rule says so; both zero disables the
// site.
type SiteSpec struct {
	// Probability injects independently at each decision point with
	// this chance (deterministically derived from the plan seed).
	Probability float64 `json:"probability,omitempty"`
	// Every injects at every Nth draw of each (site, key) pair
	// (1 = every draw) — the deterministic-schedule alternative to
	// Probability for tests that need an exact failure.
	Every int `json:"every,omitempty"`
}

// Enabled reports whether the site can ever fire.
func (s SiteSpec) Enabled() bool { return s.Probability > 0 || s.Every > 0 }

// NodeCrash schedules one cluster node's death at a virtual instant.
// The cluster simulator marks the node's cache tiers lost, requeues
// its in-flight cold starts and running requests, and re-places them
// on surviving nodes.
type NodeCrash struct {
	// Node is the crashing node's index.
	Node int `json:"node"`
	// At is the virtual instant of the crash.
	At Duration `json:"at"`
}

// RetryPolicy budgets the capped-exponential-backoff retries that
// registry and SSD fetches run on the virtual clock.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per operation (default 4).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Base is the first backoff delay (default 20ms); attempt k waits
	// Base·2^k, capped at Cap.
	Base Duration `json:"base,omitempty"`
	// Cap bounds a single backoff delay (default 500ms).
	Cap Duration `json:"cap,omitempty"`
	// Jitter spreads each delay by ±Jitter/2 of itself,
	// deterministically derived from the plan seed (default 0.2).
	Jitter float64 `json:"jitter,omitempty"`
}

// Plan is one fault-injection configuration: what fails, how often,
// and how recovery is budgeted. The zero Plan injects nothing and is
// behaviorally identical to no plan at all.
type Plan struct {
	// Seed namespaces every deterministic draw the injector makes.
	Seed int64 `json:"seed,omitempty"`
	// ArtifactCorrupt configures SiteArtifactCorrupt.
	ArtifactCorrupt SiteSpec `json:"artifact_corrupt,omitempty"`
	// RegistryTimeout configures SiteRegistryTimeout.
	RegistryTimeout SiteSpec `json:"registry_timeout,omitempty"`
	// SSDRead configures SiteSSDRead.
	SSDRead SiteSpec `json:"ssd_read,omitempty"`
	// RestoreMismatch configures SiteRestoreMismatch.
	RestoreMismatch SiteSpec `json:"restore_mismatch,omitempty"`
	// TemplateMissing configures SiteTemplateMissing (draws happen only
	// for deployments whose artifact is template-factored).
	TemplateMissing SiteSpec `json:"template_missing,omitempty"`
	// TimeoutDelay is the virtual time one timed-out fetch attempt
	// burns before its failure is known. Zero means "the full transfer
	// duration" — a stall detected only at the deadline.
	TimeoutDelay Duration `json:"timeout_delay,omitempty"`
	// NodeCrashes schedules cluster node deaths (cluster simulator
	// only; the single-pool simulator has no nodes and ignores them).
	NodeCrashes []NodeCrash `json:"node_crashes,omitempty"`
	// Retry budgets fetch retries.
	Retry RetryPolicy `json:"retry,omitempty"`
}

// Spec returns the site's configuration.
func (p Plan) Spec(site Site) SiteSpec {
	switch site {
	case SiteArtifactCorrupt:
		return p.ArtifactCorrupt
	case SiteRegistryTimeout:
		return p.RegistryTimeout
	case SiteSSDRead:
		return p.SSDRead
	case SiteRestoreMismatch:
		return p.RestoreMismatch
	case SiteTemplateMissing:
		return p.TemplateMissing
	}
	return SiteSpec{}
}

// Zero reports whether the plan injects nothing: no site enabled and
// no crash scheduled. Simulators treat a zero plan exactly like a nil
// one, which is what keeps empty-plan runs bit-identical to fault-free
// builds.
func (p Plan) Zero() bool {
	for _, s := range Sites() {
		if p.Spec(s).Enabled() {
			return false
		}
	}
	return len(p.NodeCrashes) == 0
}

// Validate rejects out-of-range fields.
func (p Plan) Validate() error {
	for _, s := range Sites() {
		spec := p.Spec(s)
		if spec.Probability < 0 || spec.Probability > 1 {
			return fmt.Errorf("faults: %s probability must be in [0,1], got %g", s, spec.Probability)
		}
		if spec.Every < 0 {
			return fmt.Errorf("faults: %s every must be ≥ 0, got %d", s, spec.Every)
		}
	}
	if p.TimeoutDelay < 0 {
		return fmt.Errorf("faults: timeout_delay must be ≥ 0, got %v", p.TimeoutDelay.D())
	}
	for i, nc := range p.NodeCrashes {
		if nc.Node < 0 {
			return fmt.Errorf("faults: node_crashes[%d].node must be ≥ 0, got %d", i, nc.Node)
		}
		if nc.At < 0 {
			return fmt.Errorf("faults: node_crashes[%d].at must be ≥ 0, got %v", i, nc.At.D())
		}
	}
	r := p.Retry
	if r.MaxAttempts < 0 || r.Base < 0 || r.Cap < 0 || r.Jitter < 0 || r.Jitter > 1 {
		return fmt.Errorf("faults: retry fields must be non-negative (jitter ≤ 1), got %+v", r)
	}
	return nil
}

// withDefaults fills the retry budget with the calibrated defaults.
func (p Plan) withDefaults() Plan {
	if p.Retry.MaxAttempts == 0 {
		p.Retry.MaxAttempts = 4
	}
	if p.Retry.Base == 0 {
		p.Retry.Base = Duration(20 * time.Millisecond)
	}
	if p.Retry.Cap == 0 {
		p.Retry.Cap = Duration(500 * time.Millisecond)
	}
	if p.Retry.Jitter == 0 {
		p.Retry.Jitter = 0.2
	}
	return p
}

// Presets returns the named built-in plans LoadPlan resolves before
// trying the filesystem: "none" (inject nothing), "mild" (2% per
// site), "heavy" (15% per site), and "crash" (mild plus node 1 dying
// 15 s in).
func Presets() map[string]Plan {
	mild := Plan{
		Seed:            1,
		ArtifactCorrupt: SiteSpec{Probability: 0.02},
		RegistryTimeout: SiteSpec{Probability: 0.02},
		SSDRead:         SiteSpec{Probability: 0.02},
		RestoreMismatch: SiteSpec{Probability: 0.02},
	}
	heavy := Plan{
		Seed:            2,
		ArtifactCorrupt: SiteSpec{Probability: 0.15},
		RegistryTimeout: SiteSpec{Probability: 0.15},
		SSDRead:         SiteSpec{Probability: 0.15},
		RestoreMismatch: SiteSpec{Probability: 0.15},
	}
	crash := mild
	crash.Seed = 3
	crash.NodeCrashes = []NodeCrash{{Node: 1, At: Duration(15 * time.Second)}}
	return map[string]Plan{"none": {}, "mild": mild, "heavy": heavy, "crash": crash}
}

// LoadPlan resolves a -faults argument: a preset name from Presets, or
// a path to a JSON plan file. The returned plan is validated.
func LoadPlan(nameOrPath string) (Plan, error) {
	if p, ok := Presets()[nameOrPath]; ok {
		return p, nil
	}
	raw, err := os.ReadFile(nameOrPath)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: %q is neither a preset (none|mild|heavy|crash) nor a readable plan file: %w", nameOrPath, err)
	}
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return Plan{}, fmt.Errorf("faults: parsing plan %s: %w", nameOrPath, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("faults: plan %s: %w", nameOrPath, err)
	}
	return p, nil
}

// Injector makes the per-draw decisions of one Plan. Safe for
// concurrent use; every decision is a pure hash of (seed, site, key,
// draw count), so concurrent callers perturb only which caller gets
// which draw — the multiset of outcomes per (site, key) is fixed. The
// simulators drive it from single-goroutine event loops, where even
// that ambiguity vanishes.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	counts map[string]uint64
}

// NewInjector validates the plan, applies retry defaults, and returns
// an injector for it. A nil return with nil error means the plan is
// zero — callers skip fault paths entirely, keeping empty-plan runs
// bit-identical to fault-free ones.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Zero() {
		return nil, nil
	}
	return &Injector{
		plan:   plan.withDefaults(),
		counts: make(map[string]uint64),
	}, nil
}

// Inject decides whether the site's fault fires for this draw. Each
// (site, key) pair has its own draw counter, so repeated draws at one
// site are independent and reproducible.
func (in *Injector) Inject(site Site, key string) bool {
	spec := in.plan.Spec(site)
	if !spec.Enabled() {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	ck := string(site) + "\x00" + key
	n := in.counts[ck]
	in.counts[ck] = n + 1
	fire := false
	if spec.Every > 0 && (n+1)%uint64(spec.Every) == 0 {
		fire = true
	}
	if !fire && spec.Probability > 0 {
		fire = in.unit(site, key, n) < spec.Probability
	}
	return fire
}

// MaxAttempts is the plan's per-operation retry budget.
func (in *Injector) MaxAttempts() int { return in.plan.Retry.MaxAttempts }

// TimeoutDelay is the virtual cost of one timed-out fetch attempt;
// fallback (typically the full transfer duration) applies when the
// plan leaves it unset.
func (in *Injector) TimeoutDelay(fallback time.Duration) time.Duration {
	if d := in.plan.TimeoutDelay.D(); d > 0 {
		return d
	}
	return fallback
}

// Backoff returns the delay before retry number attempt (0-based) of
// an operation at (site, key): capped exponential growth from the
// plan's base, spread by deterministic jitter so coordinated retries
// do not synchronize.
func (in *Injector) Backoff(site Site, key string, attempt int) time.Duration {
	r := in.plan.Retry
	d := r.Base.D()
	for i := 0; i < attempt && d < r.Cap.D(); i++ {
		d *= 2
	}
	if d > r.Cap.D() {
		d = r.Cap.D()
	}
	if r.Jitter > 0 {
		u := in.unit(site, "backoff\x00"+key, uint64(attempt))
		d += time.Duration(float64(d) * r.Jitter * (u - 0.5))
	}
	return d
}

// Retry runs the attempt loop of one operation at (site, key) within
// the plan's retry budget, drawing the site once per attempt, and
// reports whether some attempt succeeded. Each failed attempt calls
// failed with the backoff to wait before the next one —
// Backoff(site, key, attempt) — or with zero when the budget is spent;
// callers charge their own per-attempt cost and counters there. A nil
// injector succeeds at once without calling failed.
func (in *Injector) Retry(site Site, key string, failed func(backoff time.Duration)) bool {
	if in == nil {
		return true
	}
	attempts := in.MaxAttempts()
	for attempt := 0; attempt < attempts; attempt++ {
		if !in.Inject(site, key) {
			return true
		}
		var backoff time.Duration
		if attempt+1 < attempts {
			backoff = in.Backoff(site, key, attempt)
		}
		failed(backoff)
	}
	return false
}

// CrashSchedule returns the plan's node crashes ordered by (instant,
// node) so schedulers enqueue them deterministically.
func (in *Injector) CrashSchedule() []NodeCrash {
	out := append([]NodeCrash(nil), in.plan.NodeCrashes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// unit derives a uniform [0,1) value from (seed, site, key, n) with a
// splitmix64 chain — no shared random stream, no ordering dependence.
func (in *Injector) unit(site Site, key string, n uint64) float64 {
	h := uint64(in.plan.Seed)
	h = splitmix64(h ^ fnv64(string(site)))
	h = splitmix64(h ^ fnv64(key))
	h = splitmix64(h ^ n)
	return float64(h>>11) / float64(1<<53)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a strong
// 64-bit mix with full avalanche, used here as a stateless hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over the string, inlined to keep the package
// dependency-free and allocation-free on the hot path.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
