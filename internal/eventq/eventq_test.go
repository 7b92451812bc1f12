package eventq

import (
	"cmp"
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent / refHeap reimplement the container/heap event queue the
// simulator used before the 4-ary migration, ordered by (t, at, rank,
// seq) — the oracle the generic queue must match pop-for-pop. rank is
// the event's key under a test's tie rule (zero without one). h and gen
// tag an event scheduled on a handle (h > 0) for staleRef.
type refEvent struct {
	t, at time.Duration
	rank  int
	seq   int
	v     int
	h     int
	gen   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// rank is the tie key of the fuzz and hold tests: payloads tie in
// threes, so the tie rule decides some pairs and leaves others to the
// sequence numbers.
func rank(v int) int { return v % 3 }

// byRank is the tie rule that orders by rank.
func byRank(a, b int) int { return cmp.Compare(rank(a), rank(b)) }

// TestQueueMatchesContainerHeap drives both implementations with the
// same interleaved push/pop schedule, including deliberate collisions of
// both instants, and requires identical pop sequences.
func TestQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue[int]
	var ref refHeap
	seq := 0
	pushes, pops := 0, 0
	for step := 0; step < 20000; step++ {
		if q.Len() != ref.Len() {
			t.Fatalf("length diverged: %d vs %d", q.Len(), ref.Len())
		}
		if q.Len() == 0 || rng.Intn(3) != 0 {
			// Coarse instants force frequent ties so the (t, at, seq)
			// tie-break is actually exercised.
			due := time.Duration(rng.Intn(50)) * time.Millisecond
			at := time.Duration(rng.Intn(4)) * time.Millisecond
			q.Schedule(nil, due, at, step)
			heap.Push(&ref, refEvent{t: due, at: at, seq: seq, v: step})
			seq++
			pushes++
		} else {
			gt, gat, gv := q.Pop()
			want := heap.Pop(&ref).(refEvent)
			if gt != want.t || gat != want.at || gv != want.v {
				t.Fatalf("pop %d diverged: got (%v, %v, %d), want %+v", pops, gt, gat, gv, want)
			}
			pops++
		}
	}
	for q.Len() > 0 {
		gt, _, gv := q.Pop()
		want := heap.Pop(&ref).(refEvent)
		if gt != want.t || gv != want.v {
			t.Fatalf("drain diverged: got (%v, %d), want (%v, %d)", gt, gv, want.t, want.v)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("oracle still holds %d events", ref.Len())
	}
	if pushes < 1000 || pops < 1000 {
		t.Fatalf("schedule too tame: %d pushes, %d pops", pushes, pops)
	}
}

// TestStampedHoldMatchesPush holds one event at a time outside the
// queue under a Stamp and pops whichever of it and the queue's earliest
// comes first by (t, at, tie rule, seq). The pop sequence must equal
// that of a queue every event was pushed into, ties included.
func TestStampedHoldMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q, ref := Queue[int]{Tie: byRank}, Queue[int]{Tie: byRank}
	type held struct {
		t, at time.Duration
		seq   uint64
		v     int
		ok    bool
	}
	var h held
	pops, merged := 0, 0
	pop := func() (time.Duration, int) {
		if h.ok && q.Precedes(h.t, h.at, h.seq, h.v) {
			h.ok = false
			merged++
			return h.t, h.v
		}
		t, _, v := q.Pop()
		return t, v
	}
	for step := 0; step < 30000; step++ {
		due := time.Duration(rng.Intn(40)) * time.Millisecond
		at := time.Duration(rng.Intn(4)) * time.Millisecond
		switch op := rng.Intn(8); {
		case op < 3:
			q.Schedule(nil, due, at, step)
			ref.Schedule(nil, due, at, step)
		case op < 5 && !h.ok:
			h = held{t: due, at: at, seq: q.Stamp(), v: step, ok: true}
			ref.Schedule(nil, due, at, step)
		case ref.Len() > 0:
			gt, gv := pop()
			wt, _, wv := ref.Pop()
			if gt != wt || gv != wv {
				t.Fatalf("pop %d: held merge gave (%v, %d), push gave (%v, %d)", pops, gt, gv, wt, wv)
			}
			pops++
		}
	}
	for ref.Len() > 0 {
		gt, gv := pop()
		wt, _, wv := ref.Pop()
		if gt != wt || gv != wv {
			t.Fatalf("drain: held merge gave (%v, %d), push gave (%v, %d)", gt, gv, wt, wv)
		}
	}
	if q.Len() != 0 || h.ok {
		t.Fatalf("held merge left %d queued, held %v", q.Len(), h.ok)
	}
	if merged < 1000 || pops < 1000 {
		t.Fatalf("schedule too tame: %d pops, %d held pops", pops, merged)
	}
}

// staleRef is the lazy-invalidation scheme handles replace: scheduling
// on a handle pushes a new event and leaves the one it supersedes in
// the heap under an older generation, cancelling only forgets the
// live generation, and Pop skips every event whose generation is no
// longer live. A schedule that supersedes a live event pushes the new
// one under the live event's sequence number, as a move keeps it.
type staleRef struct {
	heap refHeap
	seq  int
	gens int
	live []int // live generation per handle; 0 = not queued
	seqs []int // sequence number of each handle's live event
	n    int   // live events
}

func (r *staleRef) schedule(h int, t, at time.Duration, v int) {
	e := refEvent{t: t, at: at, rank: rank(v), v: v, h: h}
	switch {
	case h == 0:
		e.seq = r.stamp()
		r.n++
	case r.live[h] != 0:
		e.seq = r.seqs[h]
	default:
		e.seq = r.stamp()
		r.seqs[h] = e.seq
		r.n++
	}
	if h > 0 {
		r.gens++
		e.gen, r.live[h] = r.gens, r.gens
	}
	heap.Push(&r.heap, e)
}

func (r *staleRef) stamp() int {
	r.seq++
	return r.seq - 1
}

func (r *staleRef) cancel(h int) {
	if r.live[h] != 0 {
		r.live[h] = 0
		r.n--
	}
}

func (r *staleRef) pop() refEvent {
	for {
		e := heap.Pop(&r.heap).(refEvent)
		if e.h == 0 || r.live[e.h] == e.gen {
			if e.h > 0 {
				r.live[e.h] = 0
			}
			r.n--
			return e
		}
	}
}

// FuzzQueueOps drives the queue, with a handful of handles and the
// byRank tie rule, and staleRef through the same Schedule (bound or
// not), Cancel, Stamp and Pop sequence, decoded from the input two
// bytes per operation. Every pop must agree in time, push instant and
// payload, and Len and every handle's Queued must
// agree after every operation.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0x13, 1, 0x23, 2, 0x11, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{1, 0x05, 1, 0x02, 1, 0x07, 3, 0x00, 4, 0, 4, 1, 5, 0, 2, 0x31, 5, 0})
	f.Add([]byte{4, 0, 0, 4, 4, 5, 1, 0x24, 3, 0x20, 5, 0, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const handles = 4
		q := Queue[int]{Tie: byRank}
		var hs [handles + 1]Handle // hs[0] unused: refEvent.h 0 means none
		ref := staleRef{live: make([]int, handles+1), seqs: make([]int, handles+1)}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			// Coarse instants: ties are common. The push instant takes
			// the op byte's high bits.
			due := time.Duration(arg&15) * time.Millisecond
			at := time.Duration(ops[i]>>6) * time.Millisecond
			h := 1 + int(arg>>4)%handles
			switch {
			case op == 0:
				q.Schedule(nil, due, at, i)
				ref.schedule(0, due, at, i)
			case op <= 2:
				q.Schedule(&hs[h], due, at, i)
				ref.schedule(h, due, at, i)
			case op == 3:
				q.Cancel(&hs[h])
				ref.cancel(h)
			case op == 4:
				if got, want := q.Stamp(), ref.stamp(); got != uint64(want) {
					t.Fatalf("op %d: Stamp %d, reference %d", i/2, got, want)
				}
			case ref.n > 0:
				gt, gat, gv := q.Pop()
				want := ref.pop()
				if gt != want.t || gat != want.at || gv != want.v {
					t.Fatalf("op %d: popped (%v, %v, %d), reference %+v", i/2, gt, gat, gv, want)
				}
			}
			if q.Len() != ref.n {
				t.Fatalf("op %d: Len %d, reference %d", i/2, q.Len(), ref.n)
			}
			for j := 1; j <= handles; j++ {
				if hs[j].Queued() != (ref.live[j] != 0) {
					t.Fatalf("op %d: handle %d Queued %v, reference %v", i/2, j, hs[j].Queued(), ref.live[j] != 0)
				}
			}
		}
		for ref.n > 0 {
			gt, _, gv := q.Pop()
			if want := ref.pop(); gt != want.t || gv != want.v {
				t.Fatalf("drain: popped (%v, %d), reference (%v, %d)", gt, gv, want.t, want.v)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("queue holds %d events after the reference drained", q.Len())
		}
	})
}

func TestQueueFIFOAtEqualTime(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Schedule(nil, time.Second, 0, i)
	}
	for i := 0; i < 100; i++ {
		at, _, v := q.Pop()
		if at != time.Second || v != i {
			t.Fatalf("pop %d: got (%v, %d); ties must pop in push order", i, at, v)
		}
	}
}

// TestMoveKeepsSequence moves a handle's event onto the instants of an
// event queued after it: the moved event keeps its older sequence
// number, so it pops first.
func TestMoveKeepsSequence(t *testing.T) {
	var q Queue[string]
	var h Handle
	q.Schedule(&h, 2*time.Second, 0, "moved")
	q.Schedule(nil, time.Second, time.Millisecond, "later")
	q.Schedule(&h, time.Second, time.Millisecond, "moved")
	for _, want := range []string{"moved", "later"} {
		if _, _, v := q.Pop(); v != want {
			t.Fatalf("popped %q, want %q", v, want)
		}
	}
}

// TestTieRule checks where the tie rule sits in the order: it decides
// between events equal in both instants, ahead of their sequence
// numbers, and nowhere else.
func TestTieRule(t *testing.T) {
	q := Queue[int]{Tie: byRank}
	q.Schedule(nil, time.Second, 0, 5)                // rank 2
	q.Schedule(nil, time.Second, 0, 4)                // rank 1
	q.Schedule(nil, time.Second, 0, 7)                // rank 1, pushed later
	q.Schedule(nil, time.Second, time.Millisecond, 3) // rank 0, pushed later in time
	q.Schedule(nil, 0, 0, 8)                          // rank 2, due first
	for _, want := range []int{8, 4, 7, 5, 3} {
		if _, _, v := q.Pop(); v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
	}
}

func TestDequeFIFO(t *testing.T) {
	var d Deque[int]
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 10000; step++ {
		if d.Len() == 0 || rng.Intn(3) != 0 {
			d.PushBack(next)
			next++
		} else {
			if got := d.Front(); got != expect {
				t.Fatalf("Front = %d, want %d", got, expect)
			}
			if got := d.PopFront(); got != expect {
				t.Fatalf("PopFront = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for d.Len() > 0 {
		if got := d.PopFront(); got != expect {
			t.Fatalf("drain PopFront = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d of %d pushed", expect, next)
	}
}

// TestDequeBoundedMemory pins the deque's reason for existing: a queue
// that oscillates around a small depth must not grow its buffer with
// total throughput.
func TestDequeBoundedMemory(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100000; i++ {
		d.PushBack(i)
		if d.Len() > 4 {
			d.PopFront()
		}
	}
	if len(d.buf) > 16 {
		t.Fatalf("ring grew to %d slots for a depth-4 queue", len(d.buf))
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue[int]
	rng := rand.New(rand.NewSource(1))
	at := make([]time.Duration, 1024)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(time.Hour)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(nil, at[i%len(at)], 0, i)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}

// BenchmarkQueueSchedule moves one of 512 handle-bound events to a new
// instant and cancels another, then re-queues it, at 512 live events.
func BenchmarkQueueSchedule(b *testing.B) {
	var q Queue[int]
	hs := make([]Handle, 512)
	rng := rand.New(rand.NewSource(1))
	at := make([]time.Duration, 1024)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(time.Hour)))
	}
	for i := range hs {
		q.Schedule(&hs[i], at[i], 0, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := &hs[i%len(hs)]
		q.Schedule(h, at[i%len(at)], 0, i)
		c := &hs[(i*7+3)%len(hs)]
		q.Cancel(c)
		q.Schedule(c, at[(i+1)%len(at)], 0, i)
	}
}
