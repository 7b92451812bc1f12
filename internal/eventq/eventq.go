// Package eventq provides the containers on the simulator's hottest
// path: a monomorphized 4-ary min-heap for timed events and a
// ring-buffer deque for FIFO queues.
//
// The discrete-event loop (internal/serverless) previously sat on
// container/heap, whose interface-based API boxes every Push/Pop
// operand into an `any` — one allocation and one dynamic dispatch per
// event, twice per event lifetime. Queue is generic over the payload,
// so events move through it by value with no boxing, and the 4-ary
// layout does the same work with roughly half the levels (and half the
// compare-and-swap cascades) of a binary heap on the mostly-near-sorted
// pushes a simulation produces.
//
// A caller that keeps at most one event of a kind queued per object
// binds it to a Handle: Schedule moves the queued event in place
// instead of queueing a second one, and Cancel removes it, so nothing
// stale is ever popped.
//
// Determinism contract: Pop returns events in strictly increasing
// (time, sequence) order. Every Push and Schedule assigns the next
// sequence number in call order, a Schedule that moves a queued event
// included, so moving an event pops it exactly where pushing a new one
// (and skipping the superseded one) would have; Cancel assigns none.
// This is the (t, seq) tie-break the event loop used with
// container/heap, so a fixed-seed simulation pops the same events in
// the same order regardless of heap arity or implementation details.
package eventq

import "time"

// arity is the heap fan-out. Four children per node halves the tree
// depth of a binary heap; sift-down scans at most four children per
// level, which stays within one cache line for the entry sizes the
// simulator uses.
const arity = 4

// Handle tracks one queued event so it can be moved or cancelled. The
// zero value is not queued. A Handle must not be copied while queued.
type Handle struct {
	i int32 // heap index + 1; 0 = not queued
}

// Queued reports whether the handle's event is in the queue.
func (h *Handle) Queued() bool { return h.i != 0 }

// entry is one scheduled event: its instant, its tie-break sequence,
// the handle bound to it (nil for none), and the caller's payload.
type entry[T any] struct {
	t   time.Duration
	seq uint64
	h   *Handle
	v   T
}

// less orders entries by (t, seq). Sequences are unique, so the order
// is total and Pop is deterministic.
func (e *entry[T]) less(o *entry[T]) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Queue is a deterministic min-heap of timed events. The zero value is
// an empty queue ready for use.
type Queue[T any] struct {
	entries []entry[T]
	seq     uint64
}

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.entries) }

// Reserve grows the underlying storage to hold at least n events
// without reallocating.
func (q *Queue[T]) Reserve(n int) {
	if cap(q.entries) < n {
		grown := make([]entry[T], len(q.entries), n)
		copy(grown, q.entries)
		q.entries = grown
	}
}

// Push schedules v at instant t, assigning the next sequence number.
// Events pushed earlier win ties at equal t.
func (q *Queue[T]) Push(t time.Duration, v T) {
	q.Schedule(nil, t, v)
}

// Schedule queues v at instant t under the next sequence number and
// binds it to h. When h's event is already queued it is replaced in
// place, so it pops at (t, seq) as a fresh Push would and never again
// at its old instant. A nil h binds nothing.
func (q *Queue[T]) Schedule(h *Handle, t time.Duration, v T) {
	e := entry[T]{t: t, seq: q.Stamp(), h: h, v: v}
	if h == nil || h.i == 0 {
		q.add(e)
		return
	}
	i := int(h.i) - 1
	q.entries[i] = e
	q.fix(i)
}

// Cancel removes h's event from the queue; it does nothing when h is
// not queued.
func (q *Queue[T]) Cancel(h *Handle) {
	if h.i == 0 {
		return
	}
	i, last := int(h.i)-1, len(q.entries)-1
	h.i = 0
	q.entries[i] = q.entries[last]
	q.entries[last] = entry[T]{}
	q.entries = q.entries[:last]
	if i < last {
		q.fix(i)
	}
}

// Stamp hands out the sequence number the next Push would assign, and
// consumes it, without queueing anything. A caller can hold one event
// outside the queue under its stamp: comparing it with Precedes and
// popping whichever comes first yields exactly the order Push would
// have, and PushStamped queues it under the same stamp later.
func (q *Queue[T]) Stamp() uint64 {
	seq := q.seq
	q.seq++
	return seq
}

// PushStamped schedules v at instant t under seq, a sequence number
// Stamp returned that no queued event carries.
func (q *Queue[T]) PushStamped(t time.Duration, seq uint64, v T) {
	q.add(entry[T]{t: t, seq: seq, v: v})
}

// Precedes reports whether an event held at instant t under stamp seq
// pops before every queued event; it does when the queue is empty.
func (q *Queue[T]) Precedes(t time.Duration, seq uint64) bool {
	if len(q.entries) == 0 {
		return true
	}
	held := entry[T]{t: t, seq: seq}
	return held.less(&q.entries[0])
}

// PeekTime returns the earliest event's instant without removing it.
// It must not be called on an empty queue (guard with Len).
func (q *Queue[T]) PeekTime() time.Duration { return q.entries[0].t }

// Pop removes and returns the earliest event, unbinding its handle. It
// must not be called on an empty queue (guard with Len).
func (q *Queue[T]) Pop() (time.Duration, T) {
	root := q.entries[0]
	if root.h != nil {
		root.h.i = 0
	}
	last := len(q.entries) - 1
	q.entries[0] = q.entries[last]
	// Clear the vacated slot so payloads holding pointers don't pin
	// their referents beyond the event's lifetime.
	q.entries[last] = entry[T]{}
	q.entries = q.entries[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return root.t, root.v
}

func (q *Queue[T]) add(e entry[T]) {
	q.entries = append(q.entries, e)
	q.siftUp(len(q.entries) - 1)
}

// place stores e at index i and keeps its handle pointing there.
func (q *Queue[T]) place(i int, e entry[T]) {
	q.entries[i] = e
	if e.h != nil {
		e.h.i = int32(i) + 1
	}
}

// fix restores heap order around index i after its entry changed.
func (q *Queue[T]) fix(i int) {
	if i > 0 && q.entries[i].less(&q.entries[(i-1)/arity]) {
		q.siftUp(i)
	} else {
		q.siftDown(i)
	}
}

func (q *Queue[T]) siftUp(i int) {
	e := q.entries[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !e.less(&q.entries[parent]) {
			break
		}
		q.place(i, q.entries[parent])
		i = parent
	}
	q.place(i, e)
}

func (q *Queue[T]) siftDown(i int) {
	e := q.entries[i]
	n := len(q.entries)
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.entries[c].less(&q.entries[min]) {
				min = c
			}
		}
		if !q.entries[min].less(&e) {
			break
		}
		q.place(i, q.entries[min])
		i = min
	}
	q.place(i, e)
}
