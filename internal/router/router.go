// Package router holds the fleet control plane's dispatch policies:
// given a deployment's ready instances, in what order should queued
// work be offered to them? The cluster simulator builds one Candidate
// per dispatchable instance — queue depth, KV headroom, artifact
// locality, predicted TTFT — scores them through the configured
// policy, and dispatches in descending score order with ties broken by
// lowest instance id. Scoring is a pure function of the Candidate, so
// routing is deterministic and a fixed-seed simulation renders
// byte-identically whatever policy is plugged in.
package router

import (
	"cmp"
	"fmt"
	"slices"
)

// Candidate is one dispatchable instance as the router sees it.
type Candidate struct {
	// ID is the instance id (the deterministic tie-break key).
	ID int
	// QueueDepth counts requests already on the instance (running plus,
	// in batched mode, preempted-waiting).
	QueueDepth int
	// KVHeadroom is the instance's free KV-cache fraction in [0, 1].
	KVHeadroom float64
	// Locality grades the instance's node cache for the deployment's
	// artifact: 1 RAM-resident, 0.9 in-flight, 0.7 SSD, 0 absent.
	Locality float64
	// PredTTFT estimates (in seconds) how long a request dispatched to
	// this instance waits for its first token.
	PredTTFT float64
}

// Policy scores candidates; higher is better. Implementations must be
// pure functions of the Candidate. The simulator scores a deployment's
// idle instances only when it has requests queued, so how often Score
// is called is not part of any result.
type Policy interface {
	// Name identifies the policy in reports and renders.
	Name() string
	// Score grades one candidate; dispatch proceeds in descending
	// score order.
	Score(c Candidate) float64
}

// LeastLoaded routes to the emptiest instance: score = −QueueDepth.
type LeastLoaded struct{}

// Name identifies the policy.
func (*LeastLoaded) Name() string { return "leastloaded" }

// Score grades a candidate purely by how empty it is.
func (*LeastLoaded) Score(c Candidate) float64 { return -float64(c.QueueDepth) }

// Default weights for the SLO-aware composite score. Queue depth and
// predicted TTFT dominate (they measure the delay a dispatch would
// actually see); KV headroom and artifact locality break near-ties
// toward instances with room to grow and warm caches.
const (
	WeightQueue    = 1.0
	WeightKV       = 0.5
	WeightLocality = 0.25
	WeightTTFT     = 2.0
)

// Scored is the SLO-aware composite policy:
//
//	score = −WeightQueue·depth + WeightKV·headroom
//	      + WeightLocality·locality − WeightTTFT·predTTFT
type Scored struct{}

// Name identifies the policy.
func (*Scored) Name() string { return "score" }

// Score combines all four candidate signals with the package weights.
func (*Scored) Score(c Candidate) float64 {
	return -WeightQueue*float64(c.QueueDepth) +
		WeightKV*c.KVHeadroom +
		WeightLocality*c.Locality -
		WeightTTFT*c.PredTTFT
}

// Ranker ranks candidates into buffers it keeps across calls, so a
// warm Ranker allocates nothing. The zero value is ready to use.
type Ranker struct {
	keys  []rankKey
	order []int
}

// rankKey is one candidate's sort key and its index into the slate.
type rankKey struct {
	score float64
	id    int
	idx   int
}

// compareRank orders by descending score, then ascending ID. IDs are
// unique within a slate, so for finite scores this is a total order
// and every correct sort yields the same permutation.
func compareRank(a, b rankKey) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// Rank orders indices into cands by descending score, ties broken by
// ascending ID — the dispatch order the cluster simulator walks. The
// returned slice is the Ranker's own buffer, valid until its next
// call.
func (r *Ranker) Rank(p Policy, cands []Candidate) []int {
	keys := r.keys[:0]
	for i, c := range cands {
		keys = append(keys, rankKey{score: p.Score(c), id: c.ID, idx: i})
	}
	slices.SortFunc(keys, compareRank)
	order := r.order[:0]
	for _, k := range keys {
		order = append(order, k.idx)
	}
	r.keys, r.order = keys, order
	return order
}

// Parse resolves a policy by CLI name: "fifo" (or empty) returns nil,
// selecting the simulator's legacy launch-order dispatch;
// "leastloaded" and "score" return the corresponding policies.
func Parse(name string) (Policy, error) {
	switch name {
	case "", "fifo":
		return nil, nil
	case "leastloaded":
		return &LeastLoaded{}, nil
	case "score":
		return &Scored{}, nil
	}
	return nil, fmt.Errorf("router: unknown policy %q (want fifo, leastloaded or score)", name)
}
