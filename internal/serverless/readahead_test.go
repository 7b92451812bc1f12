package serverless

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/workload"
)

// countSource emits n arrivals, one millisecond apart and spread over
// deps deployments (endless when n < 0), and panics instead of emitting
// arrival panicAt when panicAt ≥ 0.
type countSource struct {
	n, deps, panicAt, i int
}

func (c *countSource) Next() (int, workload.Request, bool) {
	if c.i == c.panicAt {
		panic(fmt.Sprintf("source panic at %d", c.i))
	}
	if c.n >= 0 && c.i >= c.n {
		return 0, workload.Request{}, false
	}
	r := workload.Request{ID: c.i, Arrival: time.Duration(c.i) * time.Millisecond,
		PromptTokens: 1 + c.i%7, OutputTokens: 1 + c.i%5}
	c.i++
	return r.ID % c.deps, r, true
}

func (c *countSource) Err() error { return nil }

// oneDeployment streams a request source as deployment 0's arrivals.
type oneDeployment struct{ workload.Source }

func (o oneDeployment) Next() (int, workload.Request, bool) {
	r, ok := o.Source.Next()
	return 0, r, ok
}

// waitGoroutines polls until no more than base goroutines are left: a
// producer the run failed to join would stay above it.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, want ≤ %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadDeliversSourceOrder drains the ring over stream lengths
// around the block and ring sizes and requires exactly what the bare
// source emits, then the end of the stream with a nil error.
func TestReadAheadDeliversSourceOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{0, 1, readAheadBlock - 1, readAheadBlock, readAheadBlock + 1, readAheadBlocks*readAheadBlock + 7} {
		bare := &countSource{n: n, deps: 3, panicAt: -1}
		ra := startReadAhead(&countSource{n: n, deps: 3, panicAt: -1})
		for i := 0; ; i++ {
			wd, wr, wok := bare.Next()
			gd, gr, gok := ra.Next()
			if gd != wd || gr != wr || gok != wok {
				t.Fatalf("n=%d arrival %d: got (%d, %+v, %v), want (%d, %+v, %v)", n, i, gd, gr, gok, wd, wr, wok)
			}
			if !wok {
				break
			}
		}
		if _, _, ok := ra.Next(); ok {
			t.Fatalf("n=%d: arrival after the end of the stream", n)
		}
		if err := ra.Err(); err != nil {
			t.Fatalf("n=%d: Err = %v", n, err)
		}
		ra.close()
	}
	waitGoroutines(t, base)
}

// malformedTrace is a JSON Lines trace whose line k+1 is malformed.
func malformedTrace(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "{\"arrival_ms\":%d,\"prompt_tokens\":16,\"output_tokens\":4}\n", 10*i)
	}
	b.WriteString("{\"arrival_ms\":\n")
	return b.String()
}

// TestReadAheadStopsAtSourceError reads traces that fail after k good
// requests: the ring delivers exactly those k, then the reader's error,
// and a fleet run fails with that same error.
func TestReadAheadStopsAtSourceError(t *testing.T) {
	base := runtime.NumGoroutine()
	_, c := simFixture(t, "Qwen1.5-0.5B")
	for _, k := range []int{0, 1, readAheadBlock, readAheadBlocks*readAheadBlock + 7} {
		_, want := workload.Collect(workload.NewTraceReader(strings.NewReader(malformedTrace(k))))
		if want == nil {
			t.Fatalf("k=%d: malformed trace accepted", k)
		}
		ra := startReadAhead(oneDeployment{workload.NewTraceReader(strings.NewReader(malformedTrace(k)))})
		got := 0
		for {
			_, _, ok := ra.Next()
			if !ok {
				break
			}
			got++
		}
		ra.close()
		if got != k {
			t.Errorf("k=%d: delivered %d requests", k, got)
		}
		if err := ra.Err(); err == nil || err.Error() != want.Error() {
			t.Errorf("k=%d: Err = %v, want %v", k, err, want)
		}

		_, err := RunFleet(Fleet{Nodes: 1, GPUsPerNode: 2, Deployments: []Deployment{
			{Name: "x", Config: c, Source: workload.NewTraceReader(strings.NewReader(malformedTrace(k)))},
		}})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("k=%d: RunFleet error = %v, want %v", k, err, want)
		}
	}
	waitGoroutines(t, base)
}

// TestReadAheadStopsOnLoopError fails runs early, on an endless
// stream's first arrival for an unknown deployment and on a stream
// that goes backwards: the run must stop and join its producer.
func TestReadAheadStopsOnLoopError(t *testing.T) {
	base := runtime.NumGoroutine()
	_, c := simFixture(t, "Qwen1.5-0.5B")
	fleet := func(src ArrivalSource) Fleet {
		return Fleet{Nodes: 1, GPUsPerNode: 2, Arrivals: src, Deployments: []Deployment{{Name: "x", Config: c}}}
	}
	if _, err := RunFleet(fleet(&countSource{n: -1, deps: 2, panicAt: -1})); err == nil ||
		!strings.Contains(err.Error(), "unknown deployment") {
		t.Errorf("RunFleet error = %v, want an unknown-deployment error", err)
	}
	backwards := MergeArrivals([]workload.Source{workload.NewSlice([]workload.Request{
		{Arrival: time.Second, PromptTokens: 8, OutputTokens: 4},
		{Arrival: 0, PromptTokens: 8, OutputTokens: 4},
	})})
	if _, err := RunFleet(fleet(backwards)); err == nil || !strings.Contains(err.Error(), "went backwards") {
		t.Errorf("RunFleet error = %v, want a backwards-stream error", err)
	}
	waitGoroutines(t, base)
}

// TestReadAheadPanicsOnCaller makes the source panic after a few
// blocks: the panic must surface on the goroutine reading the stream,
// after every arrival emitted before it, both from the ring directly
// and from a fleet run.
func TestReadAheadPanicsOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	const at = 2*readAheadBlock + 3
	want := fmt.Sprintf("source panic at %d", at)
	recovered := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	ra := startReadAhead(&countSource{n: -1, deps: 1, panicAt: at})
	got := 0
	if p := recovered(func() {
		for {
			ra.Next()
			got++
		}
	}); p != want {
		t.Errorf("ring panicked with %v, want %q", p, want)
	}
	ra.close()
	if got != at {
		t.Errorf("delivered %d arrivals before the panic, want %d", got, at)
	}

	_, c := simFixture(t, "Qwen1.5-0.5B")
	f := Fleet{Nodes: 1, GPUsPerNode: 2, Arrivals: &countSource{n: -1, deps: 1, panicAt: at},
		Deployments: []Deployment{{Name: "x", Config: c}}}
	if p := recovered(func() { _, _ = RunFleet(f) }); p != want {
		t.Errorf("RunFleet panicked with %v, want %q", p, want)
	}
	waitGoroutines(t, base)
}
