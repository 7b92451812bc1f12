package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// GapPhase is the synthetic phase that absorbs instants of a breakdown
// extent covered by no interval. Keeping gaps explicit is what makes
// the accounting exact: the per-phase durations of one attribution
// always sum to the extent of the input intervals, to the nanosecond.
const GapPhase = "(gap)"

// Interval is one phase-tagged interval handed to AddExclusive.
type Interval struct {
	Phase      string
	Start, End time.Duration
}

// Duration returns the interval's length.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Timeline is a cold start's stage layout, kept in start order with
// ties in record order. The paper's breakdown figures (Figures 1, 2
// and 8) are rendered from it, and AddExclusive attributes it as is;
// overlapping stages (asynchronous weight loading) are first-class.
type Timeline []Interval

// Record inserts a stage after every stage that starts no later.
// Zero-length stages are kept: they document eliminated work, e.g.
// Medusa's 0.02 s KV restore.
func (t *Timeline) Record(phase string, start, end time.Duration) {
	if end < start {
		panic(fmt.Sprintf("obs: stage %q ends (%v) before it starts (%v)", phase, end, start))
	}
	i := len(*t)
	for i > 0 && (*t)[i-1].Start > start {
		i--
	}
	*t = slices.Insert(*t, i, Interval{Phase: phase, Start: start, End: end})
}

// Stage returns the first stage, in start order, with the given phase.
func (t Timeline) Stage(phase string) (Interval, bool) {
	for _, iv := range t {
		if iv.Phase == phase {
			return iv, true
		}
	}
	return Interval{}, false
}

// StageDuration returns the duration of the named stage, or zero.
func (t Timeline) StageDuration(phase string) time.Duration {
	iv, _ := t.Stage(phase)
	return iv.Duration()
}

// Total returns the length of the extent from the first start to the
// latest end: wall time, counting overlaps once.
func (t Timeline) Total() time.Duration {
	if len(t) == 0 {
		return 0
	}
	hi := t[0].End
	for _, iv := range t[1:] {
		hi = max(hi, iv.End)
	}
	return hi - t[0].Start
}

// PhaseBreakdown accumulates exclusive per-phase durations — the
// Figure-5 view of cold starts. "Exclusive" means every instant of an
// attributed extent is charged to exactly one phase, so the per-phase
// sums equal the end-to-end durations with zero drift even when the
// underlying stages overlap (async weight streaming, Medusa's restore
// next to the weight copy).
type PhaseBreakdown struct {
	order  []string
	totals map[string]time.Duration
	counts map[string]int
}

// NewPhaseBreakdown returns an empty breakdown.
func NewPhaseBreakdown() *PhaseBreakdown {
	return &PhaseBreakdown{totals: make(map[string]time.Duration), counts: make(map[string]int)}
}

// Add charges d to a phase directly.
func (b *PhaseBreakdown) Add(phase string, d time.Duration) {
	if _, ok := b.totals[phase]; !ok {
		b.order = append(b.order, phase)
	}
	b.totals[phase] += d
	b.counts[phase]++
}

// AddExclusive attributes the extent covered by the intervals to their
// phases exclusively: at every instant the earliest-started covering
// interval owns the time (ties broken by later end, then by phase
// name, so attribution is independent of input order); instants inside
// the extent covered by nothing are charged to GapPhase. The total
// charged equals exactly hull(intervals).End - hull(intervals).Start.
func (b *PhaseBreakdown) AddExclusive(intervals []Interval) {
	if len(intervals) == 0 {
		return
	}
	// Elementary slices between sorted unique boundaries.
	bounds := make([]time.Duration, 0, 2*len(intervals))
	for _, iv := range intervals {
		bounds = append(bounds, iv.Start, iv.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, t := range bounds[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	charged := make(map[string]bool, len(intervals))
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]
		owner := GapPhase
		var ownerIv *Interval
		for j := range intervals {
			iv := &intervals[j]
			if iv.Start > lo || hi > iv.End {
				continue
			}
			if ownerIv == nil ||
				iv.Start < ownerIv.Start ||
				(iv.Start == ownerIv.Start && (iv.End > ownerIv.End ||
					(iv.End == ownerIv.End && iv.Phase < ownerIv.Phase))) {
				owner = iv.Phase
				ownerIv = iv
			}
		}
		if _, ok := b.totals[owner]; !ok {
			b.order = append(b.order, owner)
		}
		b.totals[owner] += hi - lo
		if !charged[owner] {
			charged[owner] = true
			b.counts[owner]++
		}
	}
}

// Phases lists the phases in first-charged order.
func (b *PhaseBreakdown) Phases() []string { return append([]string(nil), b.order...) }

// Duration reports a phase's accumulated exclusive time.
func (b *PhaseBreakdown) Duration(phase string) time.Duration { return b.totals[phase] }

// Count reports how many attributions charged the phase.
func (b *PhaseBreakdown) Count(phase string) int { return b.counts[phase] }

// Total sums all phases — by construction, exactly the summed extents
// handed to AddExclusive (plus direct Adds).
func (b *PhaseBreakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.totals {
		t += d
	}
	return t
}

// Table renders the Figure-5-style text breakdown: one row per phase
// in first-charged order with exclusive seconds and share, then an
// exact total row.
func (b *PhaseBreakdown) Table() string {
	total := b.Total()
	var w strings.Builder
	fmt.Fprintf(&w, "%-26s %12s %8s %7s\n", "phase", "exclusive", "share", "count")
	for _, p := range b.order {
		share := 0.0
		if total > 0 {
			share = float64(b.totals[p]) / float64(total) * 100
		}
		fmt.Fprintf(&w, "%-26s %11.3fs %7.1f%% %7d\n", p, b.totals[p].Seconds(), share, b.counts[p])
	}
	fmt.Fprintf(&w, "%-26s %11.3fs\n", "TOTAL", total.Seconds())
	return w.String()
}
