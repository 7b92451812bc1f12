package cuda

import (
	"bytes"
	"slices"
	"testing"
)

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
// outgrows its first chunks: every image, size list and dependency
// list is a len == cap share no append can reach past, launch records
// hand out the node's own images, and Clone stays deep.
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
	if rec := launches[0]; rec.Captured || rec.RawParams != nil || rec.ParamSizes != nil || rec.NodeID != -1 {
		t.Fatalf("eager launch record = %+v, want no images and node -1", rec)
	}

	for _, n := range []int{40, 40, 300} {
		launches = launches[:0]
		g := captureTwoStreams(t, p, s, side, n)
		var images [][]byte
		var sizes, deps [][]int
		for i, node := range g.Nodes() {
			images = append(images, node.Params...)
			sizes = append(sizes, node.ParamSizes)
			if node.Deps != nil {
				deps = append(deps, node.Deps)
			}
			rec := launches[i]
			if !rec.Captured || rec.NodeID != i || len(rec.RawParams) != len(node.Params) {
				t.Fatalf("capture of %d: launch %d record = %+v", n, i, rec)
			}
			for pi, img := range rec.RawParams {
				if &img[0] != &node.Params[pi][0] {
					t.Fatalf("capture of %d: launch %d image %d is a copy, not the node's own", n, i, pi)
				}
			}
			if &rec.ParamSizes[0] != &node.ParamSizes[0] {
				t.Fatalf("capture of %d: launch %d sizes are a copy, not the node's own", n, i)
			}
		}
		if len(deps) < n/2 {
			t.Fatalf("capture of %d: only %d nodes have deps", n, len(deps))
		}
		checkIsolated(t, "image", images)
		checkIsolated(t, "param sizes", sizes)
		checkIsolated(t, "deps", deps)
		if err := g.Validate(); err != nil {
			t.Fatalf("capture of %d after appends: %v", n, err)
		}

		// Clone is deep: scribbling over a clone of one node changes
		// neither it nor its slab neighbours.
		nodes := g.Nodes()
		orig, next := nodes[2], nodes[3]
		wantNext := next.Clone()
		c := orig.Clone()
		for _, img := range c.Params {
			for i := range img {
				img[i] ^= 0xFF
			}
		}
		c.ParamSizes[0] = 99
		c.Deps[0] = 99
		if bytes.Equal(c.Params[0], orig.Params[0]) || orig.ParamSizes[0] == 99 || orig.Deps[0] == 99 {
			t.Fatalf("capture of %d: Clone shares storage with the node", n)
		}
		for pi := range next.Params {
			if !bytes.Equal(next.Params[pi], wantNext.Params[pi]) {
				t.Fatalf("capture of %d: mutating a clone changed the next node", n)
			}
		}
	}
}
