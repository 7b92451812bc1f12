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
// (time, push instant, tie rule, sequence) order. The push instant is
// the caller's virtual clock when it scheduled the event, or any
// instant it wants the event ordered as if pushed at. The tie rule
// (Queue.Tie) is optional and only orders events equal in both
// instants. Every fresh Schedule assigns the next sequence number in
// call order; a Schedule that moves a queued event keeps that event's
// number, and Cancel assigns none. A caller that pushes every event at
// its own nondecreasing clock, with no tie rule, gets the (t, seq)
// tie-break the event loop used with container/heap, so a fixed-seed
// simulation pops the same events in the same order regardless of heap
// arity or implementation details.
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

// entry is one scheduled event: its instant, the instant it was pushed
// at and its sequence (the tie-breaks), the handle bound to it (nil for
// none), and the caller's payload.
type entry[T any] struct {
	t, at time.Duration
	seq   uint64
	h     *Handle
	v     T
}

// Queue is a deterministic min-heap of timed events. The zero value is
// an empty queue ready for use.
type Queue[T any] struct {
	entries []entry[T]
	seq     uint64
	// Tie, if set, orders two events due at the same instant and pushed
	// at the same instant before their sequence numbers do: negative
	// puts a first, positive b, zero leaves them in sequence order. It
	// must be a total preorder, and it must not change its answer for a
	// queued event unless that event is moved. Set it before the first
	// Schedule.
	Tie func(a, b T) int
}

// less orders entries by (t, at, Tie, seq). Sequences are unique, so
// the order is total and Pop is deterministic. It is split so that the
// common case, distinct instants, inlines into the sifts.
func (q *Queue[T]) less(e, o *entry[T]) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return q.lessAt(e, o)
}

// lessAt orders entries due at the same instant.
func (q *Queue[T]) lessAt(e, o *entry[T]) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if q.Tie != nil {
		if c := q.Tie(e.v, o.v); c != 0 {
			return c < 0
		}
	}
	return e.seq < o.seq
}

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.entries) }

// Schedule queues v at instant t, pushed at instant at, under the next
// sequence number, and binds it to h. When h's event is already queued
// it is moved in place to (t, at) and keeps its sequence number, so it
// never pops at its old instant. A nil h binds nothing.
func (q *Queue[T]) Schedule(h *Handle, t, at time.Duration, v T) {
	if h == nil || h.i == 0 {
		q.add(entry[T]{t: t, at: at, seq: q.Stamp(), h: h, v: v})
		return
	}
	i := int(h.i) - 1
	q.entries[i] = entry[T]{t: t, at: at, seq: q.entries[i].seq, h: h, v: v}
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

// Stamp hands out the sequence number the next Schedule would assign,
// and consumes it, without queueing anything. A caller can hold one
// event outside the queue under its stamp: comparing it with Precedes
// and popping whichever comes first yields exactly the order Schedule
// would have.
func (q *Queue[T]) Stamp() uint64 {
	seq := q.seq
	q.seq++
	return seq
}

// Precedes reports whether the event v held at instant t, pushed at at
// under stamp seq, pops before every queued event; it does when the
// queue is empty.
func (q *Queue[T]) Precedes(t, at time.Duration, seq uint64, v T) bool {
	if len(q.entries) == 0 {
		return true
	}
	held := entry[T]{t: t, at: at, seq: seq, v: v}
	return q.less(&held, &q.entries[0])
}

// Pop removes the earliest event, unbinding its handle, and returns its
// instant, its push instant and the event. It must not be called on an
// empty queue (guard with Len).
func (q *Queue[T]) Pop() (t, at time.Duration, v T) {
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
	return root.t, root.at, root.v
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
	if i > 0 && q.less(&q.entries[i], &q.entries[(i-1)/arity]) {
		q.siftUp(i)
	} else {
		q.siftDown(i)
	}
}

func (q *Queue[T]) siftUp(i int) {
	e := q.entries[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !q.less(&e, &q.entries[parent]) {
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
			if q.less(&q.entries[c], &q.entries[min]) {
				min = c
			}
		}
		if !q.less(&q.entries[min], &e) {
			break
		}
		q.place(i, q.entries[min])
		i = min
	}
	q.place(i, e)
}
