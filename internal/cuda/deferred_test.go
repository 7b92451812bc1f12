package cuda

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInstantiateDeferredMatchesInstantiate instantiates one captured
// two-stream graph both ways on one process: the deferred executable
// charges Instantiate's cost up front, builds once (on its first
// launch, not before), and then holds the same nodes and order and
// launches in the same virtual time.
func TestInstantiateDeferredMatchesInstantiate(t *testing.T) {
	p := newProc(t, 33)
	s, side := p.NewStream(), p.NewStream()
	d := mustMalloc(t, p, 64)
	if err := p.Launch(s, "vec_scale_f32", []Value{PtrValue(d), PtrValue(d), F32Value(1), U32Value(4)}); err != nil {
		t.Fatal(err) // loads the module before capture
	}
	g := captureTwoStreams(t, p, s, side, 40)

	start := p.Clock().Now()
	eager, err := g.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	eagerCost := p.Clock().Now() - start

	builds := 0
	start = p.Clock().Now()
	lazy := InstantiateDeferred(p, g.NodeCount(), func() []*Node {
		builds++
		nodes := make([]*Node, g.NodeCount())
		for i, n := range g.Nodes() {
			nodes[i] = n.Clone()
		}
		return nodes
	})
	if cost := p.Clock().Now() - start; cost != eagerCost {
		t.Fatalf("InstantiateDeferred charged %v, Instantiate %v", cost, eagerCost)
	}
	if builds != 0 {
		t.Fatalf("deferred graph built %d times before its first launch", builds)
	}

	for i := 0; i < 2; i++ {
		eagerSpan := p.Clock().Span(func() { err = eager.Launch(s) })
		if err != nil {
			t.Fatal(err)
		}
		lazySpan := p.Clock().Span(func() { err = lazy.Launch(s) })
		if err != nil {
			t.Fatal(err)
		}
		if lazySpan != eagerSpan {
			t.Fatalf("launch %d: deferred took %v, instantiated %v", i, lazySpan, eagerSpan)
		}
	}
	lazy.Graph()
	if builds != 1 {
		t.Fatalf("deferred graph built %d times, want once", builds)
	}
	if !slices.Equal(lazy.topo, eager.topo) {
		t.Fatalf("deferred order %v, instantiated %v", lazy.topo, eager.topo)
	}
	for i, n := range lazy.Graph().Nodes() {
		w := g.Nodes()[i]
		if n.ID != w.ID || n.KernelAddr != w.KernelAddr || !slices.Equal(n.Deps, w.Deps) || !slices.Equal(n.Params, w.Params) {
			t.Fatalf("node %d: deferred %+v, instantiated %+v", i, n, w)
		}
	}
}

// TestTopoSorterReuse: one sorter ordering many graphs returns what
// TopoOrder returns for each, errors included, and allocates nothing
// on acyclic graphs once it has grown to the largest.
func TestTopoSorterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ts TopoSorter
	var graphs []*Graph
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, rng.Intn(60), trial%4 == 0)
		deps := func(i int) []int32 { return g.nodes[i].Deps }
		got, err := ts.Order(len(g.nodes), deps)
		want, wantErr := g.TopoOrder()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) || !slices.Equal(got, want) {
			t.Fatalf("trial %d: sorter %v (err %v), TopoOrder %v (err %v)", trial, got, err, want, wantErr)
		}
		if err == nil {
			graphs = append(graphs, g)
		}
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, g := range graphs {
			ts.Order(len(g.nodes), func(i int) []int32 { return g.nodes[i].Deps })
		}
	})
	if allocs != 0 {
		t.Fatalf("a grown sorter allocated %v times per pass, want 0", allocs)
	}
}

// TestTopoOrderRejectsDanglingDep: TopoOrder reports a dependency
// outside the graph with Validate's message instead of indexing past
// its tables.
func TestTopoOrderRejectsDanglingDep(t *testing.T) {
	g := NewGraph([]*Node{{ID: 0}, {ID: 1, Deps: []int32{0, 7}}})
	_, err := g.TopoOrder()
	if err == nil || err.Error() != "node 1 depends on invalid node 7" {
		t.Fatalf("TopoOrder = %v", err)
	}
	if verr := g.Validate(); verr == nil || verr.Error() != err.Error() {
		t.Fatalf("Validate = %v, TopoOrder = %v", verr, err)
	}
}
