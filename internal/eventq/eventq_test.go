package eventq

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent / refHeap reimplement the container/heap event queue the
// simulator used before the 4-ary migration — the oracle the generic
// queue must match pop-for-pop. h and gen tag an event scheduled on a
// handle (h > 0) for staleRef.
type refEvent struct {
	t   time.Duration
	seq int
	v   int
	h   int
	gen int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TestQueueMatchesContainerHeap drives both implementations with the
// same interleaved push/pop schedule, including deliberate timestamp
// collisions, and requires identical pop sequences.
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
			// Coarse timestamps force frequent ties so the (t, seq)
			// tie-break is actually exercised.
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			q.Push(at, step)
			heap.Push(&ref, refEvent{t: at, seq: seq, v: step})
			seq++
			pushes++
		} else {
			peek := q.PeekTime()
			gt, gv := q.Pop()
			want := heap.Pop(&ref).(refEvent)
			if gt != want.t || gv != want.v {
				t.Fatalf("pop %d diverged: got (%v, %d), want (%v, %d)", pops, gt, gv, want.t, want.v)
			}
			if peek != gt {
				t.Fatalf("pop %d: PeekTime %v, popped at %v", pops, peek, gt)
			}
			pops++
		}
	}
	for q.Len() > 0 {
		gt, gv := q.Pop()
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
// queue under a Stamp, pops whichever of it and the queue's earliest
// comes first by (t, seq), and now and then moves it in with
// PushStamped. The pop sequence must equal that of a queue every event
// was pushed into, ties included.
func TestStampedHoldMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var q, ref Queue[int]
	type held struct {
		t   time.Duration
		seq uint64
		v   int
		ok  bool
	}
	var h held
	pops, merged, moved := 0, 0, 0
	pop := func() (time.Duration, int) {
		if h.ok && q.Precedes(h.t, h.seq) {
			h.ok = false
			merged++
			return h.t, h.v
		}
		return q.Pop()
	}
	for step := 0; step < 30000; step++ {
		at := time.Duration(rng.Intn(40)) * time.Millisecond
		switch op := rng.Intn(8); {
		case op < 3:
			q.Push(at, step)
			ref.Push(at, step)
		case op < 5 && !h.ok:
			h = held{t: at, seq: q.Stamp(), v: step, ok: true}
			ref.Push(at, step)
		case op == 5 && h.ok:
			q.PushStamped(h.t, h.seq, h.v)
			h.ok = false
			moved++
		case ref.Len() > 0:
			gt, gv := pop()
			wt, wv := ref.Pop()
			if gt != wt || gv != wv {
				t.Fatalf("pop %d: held merge gave (%v, %d), push gave (%v, %d)", pops, gt, gv, wt, wv)
			}
			pops++
		}
	}
	for ref.Len() > 0 {
		gt, gv := pop()
		wt, wv := ref.Pop()
		if gt != wt || gv != wv {
			t.Fatalf("drain: held merge gave (%v, %d), push gave (%v, %d)", gt, gv, wt, wv)
		}
	}
	if q.Len() != 0 || h.ok {
		t.Fatalf("held merge left %d queued, held %v", q.Len(), h.ok)
	}
	if merged < 1000 || moved < 500 || pops < 1000 {
		t.Fatalf("schedule too tame: %d pops, %d held pops, %d moved", pops, merged, moved)
	}
}

// staleRef is the lazy-invalidation scheme handles replace: scheduling
// on a handle pushes a new event and leaves the one it supersedes in
// the heap under an older generation, cancelling only forgets the
// live generation, and Pop skips every event whose generation is no
// longer live.
type staleRef struct {
	heap refHeap
	seq  int
	gens int
	live []int // live generation per handle; 0 = not queued
	n    int   // live events
}

func (r *staleRef) push(h int, t time.Duration, seq, v int) {
	e := refEvent{t: t, seq: seq, v: v, h: h}
	if h > 0 {
		if r.live[h] == 0 {
			r.n++
		}
		r.gens++
		e.gen, r.live[h] = r.gens, r.gens
	} else {
		r.n++
	}
	heap.Push(&r.heap, e)
}

func (r *staleRef) schedule(h int, t time.Duration, v int) {
	r.push(h, t, r.stamp(), v)
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

// FuzzQueueOps drives the queue, with a handful of handles, and
// staleRef through the same Push, Schedule, Cancel, Stamp, PushStamped
// and Pop sequence, decoded from the input two bytes per operation.
// Every pop must agree in time and payload, and Len and every handle's
// Queued must agree after every operation.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0x13, 1, 0x23, 2, 0x11, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{1, 0x05, 1, 0x02, 1, 0x07, 3, 0x00, 4, 0, 4, 1, 5, 0, 2, 0x31, 5, 0})
	f.Add([]byte{4, 0, 0, 4, 4, 5, 1, 0x24, 3, 0x20, 5, 0, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const handles = 4
		var q Queue[int]
		var hs [handles + 1]Handle // hs[0] unused: refEvent.h 0 means none
		ref := staleRef{live: make([]int, handles+1)}
		var stamps []uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			at := time.Duration(arg&15) * time.Millisecond // coarse: ties are common
			h := 1 + int(arg>>4)%handles
			switch {
			case op == 0:
				q.Push(at, i)
				ref.schedule(0, at, i)
			case op <= 2:
				q.Schedule(&hs[h], at, i)
				ref.schedule(h, at, i)
			case op == 3:
				q.Cancel(&hs[h])
				ref.cancel(h)
			case op == 4 && (len(stamps) == 0 || arg&1 == 0):
				stamps = append(stamps, q.Stamp())
				if seq := ref.stamp(); uint64(seq) != stamps[len(stamps)-1] {
					t.Fatalf("op %d: Stamp %d, reference %d", i/2, stamps[len(stamps)-1], seq)
				}
			case op == 4:
				seq := stamps[0]
				stamps = stamps[1:]
				q.PushStamped(at, seq, i)
				ref.push(0, at, int(seq), i)
			case ref.n > 0:
				gt, gv := q.Pop()
				want := ref.pop()
				if gt != want.t || gv != want.v {
					t.Fatalf("op %d: popped (%v, %d), reference (%v, %d)", i/2, gt, gv, want.t, want.v)
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
			gt, gv := q.Pop()
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
		q.Push(time.Second, i)
	}
	for i := 0; i < 100; i++ {
		at, v := q.Pop()
		if at != time.Second || v != i {
			t.Fatalf("pop %d: got (%v, %d); ties must pop in push order", i, at, v)
		}
	}
}

func TestQueueReserve(t *testing.T) {
	var q Queue[string]
	q.Push(2*time.Second, "b")
	q.Reserve(1024)
	q.Push(time.Second, "a")
	if q.Len() != 2 {
		t.Fatalf("Len = %d after Reserve", q.Len())
	}
	if _, v := q.Pop(); v != "a" {
		t.Fatalf("Reserve broke ordering: popped %q", v)
	}
	if _, v := q.Pop(); v != "b" {
		t.Fatalf("Reserve broke ordering: popped %q", v)
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
		q.Push(at[i%len(at)], i)
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
		q.Schedule(&hs[i], at[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := &hs[i%len(hs)]
		q.Schedule(h, at[i%len(at)], i)
		c := &hs[(i*7+3)%len(hs)]
		q.Cancel(c)
		q.Schedule(c, at[(i+1)%len(at)], i)
	}
}
