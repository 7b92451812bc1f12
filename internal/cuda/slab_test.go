package cuda

import (
	"slices"
	"testing"
	"unsafe"
)

// TestNodeSize pins the inline parameter layout: a Param is its 8-byte
// image and a width byte, and a Node is its ID, kernel address and two
// slice headers, with no per-parameter pointer.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Param{}); got > 9 {
		t.Fatalf("Param is %d bytes, want at most 9", got)
	}
	if got := unsafe.Sizeof(Node{}); got > 64 {
		t.Fatalf("Node is %d bytes, want at most 64", got)
	}
}

// checkIsolated requires every slice to end at its capacity and
// appending to any one to leave all the others unchanged: the slices
// share per-capture slabs, so one with spare capacity would let an
// append overwrite its neighbour.
func checkIsolated[T comparable](t *testing.T, what string, parts [][]T) {
	t.Helper()
	before := make([][]T, len(parts))
	for i, p := range parts {
		if len(p) != cap(p) {
			t.Fatalf("%s %d has len %d, cap %d", what, i, len(p), cap(p))
		}
		before[i] = slices.Clone(p)
	}
	var zero T
	for i := range parts {
		_ = append(parts[i], zero, zero, zero, zero)
		for j, p := range parts {
			if !slices.Equal(p, before[j]) {
				t.Fatalf("%s: appending to %d changed %d", what, i, j)
			}
		}
	}
}

// captureTwoStreams captures n launches split across two streams joined by
// an event, so nodes carry zero, one and two dependencies.
func captureTwoStreams(t *testing.T, p *Process, s, side *Stream, n int) *Graph {
	t.Helper()
	d := mustMalloc(t, p, 64)
	if err := s.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		st := s
		if i%3 == 1 {
			st = side
		}
		args := []Value{PtrValue(d + uint64(i)), PtrValue(d), F32Value(float32(i)), U32Value(uint32(i % 8))}
		if err := p.Launch(st, "vec_scale_f32", args); err != nil {
			t.Fatal(err)
		}
		if st == side {
			e := p.NewEvent()
			if err := side.RecordEvent(e); err != nil {
				t.Fatal(err)
			}
			if err := s.WaitEvent(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := s.EndCapture()
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != n {
		t.Fatalf("captured %d nodes, want %d", g.NodeCount(), n)
	}
	return g
}

// TestCaptureSlabsIsolateNodes checks the per-capture slabs across a
// first capture, an equal one sized from it, and a larger one that
// outgrows its first chunks: every param list and dependency list is a
// len == cap share no append can reach past, launch records hand out
// the node's own params, and Clone stays deep.
func TestCaptureSlabsIsolateNodes(t *testing.T) {
	p := newProc(t, 31)
	s, side := p.NewStream(), p.NewStream()
	var launches []LaunchRecord
	p.SetHooks(Hooks{OnLaunch: func(rec LaunchRecord) { launches = append(launches, rec) }})
	buf := mustMalloc(t, p, 64)
	eager := []Value{PtrValue(buf), PtrValue(buf), F32Value(1), U32Value(4)}
	if err := p.Launch(s, "vec_scale_f32", eager); err != nil {
		t.Fatal(err)
	}
	if rec := launches[0]; rec.Captured || rec.Params != nil || rec.NodeID != -1 {
		t.Fatalf("eager launch record = %+v, want no params and node -1", rec)
	}

	for _, n := range []int{40, 40, 300} {
		launches = launches[:0]
		g := captureTwoStreams(t, p, s, side, n)
		var params [][]Param
		var deps [][]int32
		for i, node := range g.Nodes() {
			params = append(params, node.Params)
			if node.Deps != nil {
				deps = append(deps, node.Deps)
			}
			rec := launches[i]
			if !rec.Captured || rec.NodeID != i || len(rec.Params) != len(node.Params) {
				t.Fatalf("capture of %d: launch %d record = %+v", n, i, rec)
			}
			if &rec.Params[0] != &node.Params[0] {
				t.Fatalf("capture of %d: launch %d params are a copy, not the node's own", n, i)
			}
		}
		if len(deps) < n/2 {
			t.Fatalf("capture of %d: only %d nodes have deps", n, len(deps))
		}
		checkIsolated(t, "params", params)
		checkIsolated(t, "deps", deps)
		if err := g.Validate(); err != nil {
			t.Fatalf("capture of %d after appends: %v", n, err)
		}

		// Clone is deep: scribbling over a clone of one node changes
		// neither it nor its slab neighbours.
		nodes := g.Nodes()
		orig, next := nodes[2], nodes[3]
		wantOrig, wantNext := slices.Clone(orig.Params), next.Clone()
		c := orig.Clone()
		for i := range c.Params {
			for j := range c.Params[i].Image {
				c.Params[i].Image[j] ^= 0xFF
			}
			c.Params[i].Size = 99
		}
		c.Deps[0] = 99
		if !slices.Equal(orig.Params, wantOrig) || orig.Deps[0] == 99 {
			t.Fatalf("capture of %d: Clone shares storage with the node", n)
		}
		if !slices.Equal(next.Params, wantNext.Params) || !slices.Equal(next.Deps, wantNext.Deps) {
			t.Fatalf("capture of %d: mutating a clone changed the next node", n)
		}
	}
}
