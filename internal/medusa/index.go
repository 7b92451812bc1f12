package medusa

import "sort"

// The linear walkers in analyze.go (backwardMatch, firstMatch) and the
// live-span scan in indirect.go are O(events) per query; the analysis
// stage issues one query per pointer parameter of every node, making the
// offline phase O(launches × params × events) — the dominant wall-clock
// cost at Table-1 scale (139,364 nodes). TraceIndex precomputes, from
// the recorder's event stream, a per-address-range index of allocation
// event positions so every query becomes two binary searches. The linear
// walkers are kept as reference oracles; the property tests in
// index_test.go assert exact agreement on randomized and crafted
// address-reuse traces.

// ixAlloc is one allocation's event position and (transient) address
// range.
type ixAlloc struct {
	allocIndex int
	pos        int // event position of the allocation
	addr       uint64
	size       uint64
}

// TraceIndex is an immutable interval index over one recorded event
// stream. The address space is cut at every allocation boundary into
// elementary segments; each segment lists the allocations covering it in
// event order, so "nearest allocation preceding position P that contains
// address p" is a segment lookup plus a binary search over positions.
// Build is O(n log n); queries are O(log n). Safe for concurrent use
// once built.
type TraceIndex struct {
	bounds []uint64  // sorted unique allocation boundary addresses
	segs   [][]int32 // per segment: covering alloc slots, ascending pos
	allocs []ixAlloc // slot order = event order of allocations
}

// newTraceIndex indexes the given event stream.
func newTraceIndex(events []event) *TraceIndex {
	ix := &TraceIndex{}
	for pos, ev := range events {
		if ev.free {
			continue
		}
		ix.allocs = append(ix.allocs, ixAlloc{
			allocIndex: ev.allocIndex,
			pos:        pos,
			addr:       ev.addr,
			size:       ev.size,
		})
		ix.bounds = append(ix.bounds, ev.addr, ev.addr+ev.size)
	}
	sort.Slice(ix.bounds, func(i, j int) bool { return ix.bounds[i] < ix.bounds[j] })
	ix.bounds = dedupeUint64(ix.bounds)
	if len(ix.bounds) == 0 {
		return ix
	}
	ix.segs = make([][]int32, len(ix.bounds)-1)
	// Appending in slot order keeps every segment's list sorted by
	// event position — the invariant the binary searches rely on.
	for slot := range ix.allocs {
		a := &ix.allocs[slot]
		lo := sort.Search(len(ix.bounds), func(i int) bool { return ix.bounds[i] >= a.addr })
		for s := lo; s < len(ix.segs) && ix.bounds[s] < a.addr+a.size; s++ {
			ix.segs[s] = append(ix.segs[s], int32(slot))
		}
	}
	return ix
}

func dedupeUint64(s []uint64) []uint64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// segment returns the covering-allocation list for address p, or nil if
// p falls outside every allocation boundary.
func (ix *TraceIndex) segment(p uint64) []int32 {
	// Rightmost boundary <= p; segment s covers [bounds[s], bounds[s+1]).
	s := sort.Search(len(ix.bounds), func(i int) bool { return ix.bounds[i] > p }) - 1
	if s < 0 || s >= len(ix.segs) {
		return nil
	}
	return ix.segs[s]
}

// BackwardMatch is the indexed equivalent of Recorder.backwardMatch: the
// nearest allocation preceding eventPos whose range contains p. Because
// live ranges are disjoint at any instant, this is exactly the §4.1
// trace-based match that resolves address reuse (Figure 6).
func (ix *TraceIndex) BackwardMatch(eventPos int, p uint64) (allocIndex int, offset uint64, ok bool) {
	seg := ix.segment(p)
	// Largest slot with pos < eventPos.
	// Boundaries are cut at every allocation edge, so an allocation in
	// the segment list covers the whole segment — and therefore p. The
	// latest one before eventPos is the answer.
	i := sort.Search(len(seg), func(i int) bool { return ix.allocs[seg[i]].pos >= eventPos }) - 1
	if i < 0 {
		return 0, 0, false
	}
	a := &ix.allocs[seg[i]]
	return a.allocIndex, p - a.addr, true
}

// FirstMatch is the indexed equivalent of Recorder.firstMatch — the §4.1
// strawman: the earliest allocation whose range contains p, ignoring
// launch position (wrong under address reuse; kept for the ablation).
func (ix *TraceIndex) FirstMatch(p uint64) (allocIndex int, offset uint64, ok bool) {
	seg := ix.segment(p)
	if len(seg) == 0 {
		return 0, 0, false
	}
	a := &ix.allocs[seg[0]]
	return a.allocIndex, p - a.addr, true
}

// Index returns the interval index over the recorder's current event
// stream, building (and caching) it on first use. Appending further
// events invalidates the cache; the index itself is immutable and safe
// to share across analysis workers.
func (r *Recorder) Index() *TraceIndex {
	if r.index == nil || r.indexEvents != len(r.events) {
		r.index = newTraceIndex(r.events)
		r.indexEvents = len(r.events)
	}
	return r.index
}
