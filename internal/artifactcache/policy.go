package artifactcache

import (
	"fmt"
	"time"
)

// PolicyKind selects an eviction policy for a cache tier.
type PolicyKind int

const (
	// PolicyLRU evicts the least-recently-used artifact.
	PolicyLRU PolicyKind = iota
	// PolicyLFU evicts the least-frequently-used artifact (recency
	// breaks frequency ties).
	PolicyLFU
	// PolicyCostAware is the GDSF-style policy from the DBMS cache
	// literature: an artifact's priority weighs its miss cost and
	// popularity against the capacity it occupies, plus an inflation
	// term that ages out entries whose advantage has lapsed.
	PolicyCostAware
)

// PolicyKinds lists every policy in comparison order.
func PolicyKinds() []PolicyKind { return []PolicyKind{PolicyLRU, PolicyLFU, PolicyCostAware} }

// String names the policy as ParsePolicy accepts it.
func (k PolicyKind) String() string {
	switch k {
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	case PolicyCostAware:
		return "costaware"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// ParsePolicy resolves a policy by its command-line name.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "lru":
		return PolicyLRU, nil
	case "lfu":
		return PolicyLFU, nil
	case "costaware", "cost-aware", "gdsf":
		return PolicyCostAware, nil
	}
	return 0, fmt.Errorf("artifactcache: unknown policy %q (want lru | lfu | costaware)", name)
}

// Policy scores cache entries for eviction: the entry with the LOWEST
// score is evicted first. Implementations are per-tier (the cost-aware
// policy carries an inflation clock), created via PolicyKind.New.
type Policy interface {
	// Score computes the entry's retention priority.
	Score(e EntryStats) float64
	// OnEvict observes the evicted entry's score (the cost-aware
	// policy advances its inflation clock to it).
	OnEvict(score float64)
}

// EntryStats is the per-artifact bookkeeping policies score on.
type EntryStats struct {
	// Key is the artifact's store object name.
	Key string
	// Size is the encoded artifact size in bytes.
	Size uint64
	// Cost is the miss penalty: the virtual time a remote-registry
	// fetch of this artifact takes.
	Cost time.Duration
	// Freq counts accesses since the entry was first seen.
	Freq int
	// LastSeq is the access sequence number of the most recent touch.
	LastSeq int
}

// New creates a fresh per-tier policy instance.
func (k PolicyKind) New() Policy {
	switch k {
	case PolicyLFU:
		return lfuPolicy{}
	case PolicyCostAware:
		return &gdsfPolicy{}
	default:
		return lruPolicy{}
	}
}

// CostAwareWeight is the cost-aware policy's frequency-weighted
// value-per-byte term: freq · cost / size, with size normalized to MiB
// so typical artifact weights land in a readable range. Exposed for
// `medusa-inspect artifacts`, which prints it next to each artifact's
// section breakdown to explain eviction decisions.
func CostAwareWeight(size uint64, cost time.Duration, freq int) float64 {
	if size == 0 {
		size = 1
	}
	return float64(freq) * cost.Seconds() / (float64(size) / (1 << 20))
}

type lruPolicy struct{}

func (lruPolicy) Score(e EntryStats) float64 { return float64(e.LastSeq) }
func (lruPolicy) OnEvict(float64)            {}

type lfuPolicy struct{}

func (lfuPolicy) Score(e EntryStats) float64 {
	// Recency breaks frequency ties; the sequence term stays < 1 so it
	// can never outrank a whole access.
	return float64(e.Freq) + float64(e.LastSeq)*1e-9
}
func (lfuPolicy) OnEvict(float64) {}

// gdsfPolicy is Greedy-Dual-Size-Frequency: H = L + freq·cost/size.
// L inflates to each evicted entry's H, so long-resident entries must
// keep earning their place against newcomers admitted at a higher L.
type gdsfPolicy struct {
	l float64
}

func (p *gdsfPolicy) Score(e EntryStats) float64 {
	return p.l + CostAwareWeight(e.Size, e.Cost, e.Freq)
}
func (p *gdsfPolicy) OnEvict(score float64) {
	if score > p.l {
		p.l = score
	}
}
