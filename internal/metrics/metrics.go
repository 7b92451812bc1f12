// Package metrics provides the latency statistics the evaluation
// reports: percentiles (the paper's headline metric is p99 TTFT),
// means, and simple throughput accounting.
//
// Samples aggregate in a streaming fashion: counts, sums and extrema
// are exact for any run length, while the value set behind quantiles
// is bounded by a deterministic reservoir (DefaultReservoir
// observations by default). A sample that never exceeds its reservoir
// retains everything, so small runs — every test and every checked-in
// experiment — compute exactly what a fully-retained sample would;
// 10M-request simulations hold a few thousand values per sample
// instead of tens of millions. Retain lifts the bound for callers that
// need every observation.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// DefaultReservoir is the number of observations a sample retains for
// quantile estimation before reservoir sampling kicks in.
const DefaultReservoir = 8192

// reservoirSalt seeds the deterministic slot draws of the reservoir
// (splitmix64 of salt ⊕ observation ordinal). The draw sequence is a
// fixed function of insertion order — no RNG state, no config seed —
// so a fixed-seed simulation renders byte-identical summaries across
// runs, GOMAXPROCS and process restarts.
const reservoirSalt = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 finalizer — a strong 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sample is a latency observation series with streaming aggregation.
// The zero value is ready for use and bounds its retained values at
// DefaultReservoir.
type Sample struct {
	vals []time.Duration
	// limit is the retention bound: 0 means DefaultReservoir, negative
	// means retain every observation.
	limit int
	// offered counts values offered to the reservoir (Add observations
	// plus merged values), the ordinal the deterministic slot draw is
	// keyed on.
	offered uint64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// Retain lifts the sample's retention bound so every observation is
// kept — the opt-in path for exporters and tests that need exact
// quantiles at any run length. Call it before adding observations.
func (s *Sample) Retain() { s.limit = -1 }

// reservoir returns the retention bound (0 = unlimited).
func (s *Sample) reservoir() int {
	switch {
	case s.limit < 0:
		return 0
	case s.limit == 0:
		return DefaultReservoir
	default:
		return s.limit
	}
}

// Add appends an observation.
func (s *Sample) Add(d time.Duration) {
	s.count++
	s.sum += d
	if s.count == 1 || d > s.max {
		s.max = d
	}
	s.offer(d)
}

// offer routes one value into the retained set: appended while the
// reservoir has room, then displacing a deterministically drawn slot
// with probability k/n (Vitter's algorithm R).
func (s *Sample) offer(d time.Duration) {
	s.offered++
	k := s.reservoir()
	if k == 0 || len(s.vals) < k {
		s.vals = append(s.vals, d)
		return
	}
	if j := splitmix64(reservoirSalt^s.offered) % s.offered; j < uint64(k) {
		s.vals[j] = d
	}
}

// Len reports the observation count.
func (s *Sample) Len() int { return int(s.count) }

// Retained reports how many observations the sample currently holds
// for quantile estimation. Retained < Len means quantiles are
// reservoir estimates rather than exact order statistics.
func (s *Sample) Retained() int { return len(s.vals) }

// AddAll merges another sample — fleet-level percentiles merge the
// per-deployment series this way, and replication merges fold per-rep
// samples in rep order. Counts, sums and maxima merge exactly; the
// other sample's retained values are offered to this sample's
// reservoir in their stored order, which keeps the merge a
// deterministic function of merge order.
func (s *Sample) AddAll(o *Sample) {
	if o == nil || o.count == 0 {
		return
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
	for _, v := range o.vals {
		s.offer(v)
	}
}

// Quantile returns the p-quantile (0 < p ≤ 1) using the nearest-rank
// method on a sorted copy of the retained values, and false instead of
// a value when the sample is empty or p is out of range. This is the
// non-panicking accessor for code paths where an empty sample is a
// legitimate state (a deployment that saw no traffic) rather than a
// caller bug. Beyond the retention bound the result is a reservoir
// estimate; within it, the exact order statistic.
func (s *Sample) Quantile(p float64) (time.Duration, bool) {
	if len(s.vals) == 0 || p <= 0 || p > 1 {
		return 0, false
	}
	return nearestRank(s.sorted(), p), true
}

// sorted returns a sorted copy of the retained values.
func (s *Sample) sorted() []time.Duration {
	sorted := slices.Clone(s.vals)
	slices.Sort(sorted)
	return sorted
}

// nearestRank returns the nearest-rank p-quantile (0 < p ≤ 1) of a
// sorted, non-empty slice.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(math.Ceil(p*float64(len(sorted))))-1]
}

// Percentile returns the p-th percentile (0 < p ≤ 100) using the
// nearest-rank method. It panics on an empty sample or an out-of-range
// p: asking for a percentile of nothing is a caller bug. Quantile is
// the non-panicking form.
func (s *Sample) Percentile(p float64) time.Duration {
	if s.count == 0 {
		panic("metrics: percentile of empty sample")
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	d, _ := s.Quantile(p / 100)
	return d
}

// P99 is the tail latency the paper reports.
func (s *Sample) P99() time.Duration { return s.Percentile(99) }

// P50 is the median.
func (s *Sample) P50() time.Duration { return s.Percentile(50) }

// Summary is a point-in-time digest of a sample — the per-metric row a
// registry dump or results table renders.
type Summary struct {
	// Count is how many values the sample holds.
	Count int
	// Mean, P50, P90, P99 and Max digest the sample's distribution.
	Mean, P50, P90, P99, Max time.Duration
}

// Summary digests the sample, reporting false when it is empty.
func (s *Sample) Summary() (Summary, bool) {
	if s.count == 0 {
		return Summary{}, false
	}
	sum := Summary{Count: int(s.count), Mean: s.Mean(), Max: s.Max()}
	if len(s.vals) > 0 {
		sorted := s.sorted()
		sum.P50 = nearestRank(sorted, 0.50)
		sum.P90 = nearestRank(sorted, 0.90)
		sum.P99 = nearestRank(sorted, 0.99)
	}
	return sum, true
}

// Mean returns the arithmetic mean. It is exact at any run length (the
// sum and count stream; the reservoir is not involved).
func (s *Sample) Mean() time.Duration {
	if s.count == 0 {
		panic("metrics: mean of empty sample")
	}
	return s.sum / time.Duration(s.count)
}

// Max returns the largest observation (exact at any run length).
func (s *Sample) Max() time.Duration {
	if s.count == 0 {
		panic("metrics: max of empty sample")
	}
	return s.max
}

// FractionBelow reports the share of observations at or under the
// threshold — SLO attainment (e.g. "TTFT under one second"). Beyond
// the retention bound it is estimated over the reservoir.
func (s *Sample) FractionBelow(d time.Duration) float64 {
	if s.count == 0 {
		panic("metrics: FractionBelow of empty sample")
	}
	n := 0
	for _, v := range s.vals {
		if v <= d {
			n++
		}
	}
	return float64(n) / float64(len(s.vals))
}

// Histogram renders a compact text histogram with the given bucket
// width — a quick look at a latency distribution's shape (drawn over
// the retained values; beyond the retention bound the counts describe
// the reservoir). An empty sample or a non-positive bucket width
// renders as the empty string: there is no distribution to draw, and
// callers print the result verbatim, so "nothing" is the documented
// representation of "no data" (not an error).
func (s *Sample) Histogram(bucket time.Duration, maxWidth int) string {
	if bucket <= 0 || len(s.vals) == 0 {
		return ""
	}
	if maxWidth < 1 {
		maxWidth = 40
	}
	counts := map[int]int{}
	maxBucket, maxCount := 0, 0
	for _, v := range s.vals {
		b := int(v / bucket)
		counts[b]++
		if b > maxBucket {
			maxBucket = b
		}
		if counts[b] > maxCount {
			maxCount = counts[b]
		}
	}
	var out []string
	for b := 0; b <= maxBucket; b++ {
		n := counts[b]
		w := 0
		if maxCount > 0 {
			w = n * maxWidth / maxCount
		}
		if w == 0 && n > 0 {
			w = 1
		}
		out = append(out, fmt.Sprintf("%8v–%-8v %s %d",
			time.Duration(b)*bucket, time.Duration(b+1)*bucket,
			strings.Repeat("█", w), n))
	}
	return strings.Join(out, "\n") + "\n"
}

// Throughput reports completed ops per second over a span.
func Throughput(completed int, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(completed) / span.Seconds()
}

// Reduction returns the fractional reduction of `new` versus `base`
// (0.53 ⇒ 53% lower), the form the paper quotes improvements in.
func Reduction(base, new time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(new)/float64(base)
}

// MeanCI returns the sample mean of xs and the half-width of its 95%
// confidence interval under a normal approximation (1.96 standard
// errors) — the merge statistic parallel independent-seed replications
// report. Fewer than two values carry no spread information, so the
// half-width is 0.
func MeanCI(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, 1.96 * sd / math.Sqrt(float64(n))
}
