package cuda

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// topoOrderReference is Kahn's algorithm with a separate slice per
// table and a FIFO queue of its own: the order TopoOrder must
// reproduce exactly, ties included.
func topoOrderReference(g *Graph) ([]int, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, node := range g.nodes {
		for _, d := range node.Deps {
			succ[d] = append(succ[d], node.ID)
			indeg[node.ID]++
		}
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cuda: graph has a dependency cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// randomGraph builds n nodes whose deps point at random earlier nodes,
// duplicates included; with cyclic set, some point at later ones too.
func randomGraph(rng *rand.Rand, n int, cyclic bool) *Graph {
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{ID: i}
		for k := rng.Intn(4); k > 0 && i > 0; k-- {
			nodes[i].Deps = append(nodes[i].Deps, int32(rng.Intn(i)))
		}
		if cyclic && rng.Intn(8) == 0 {
			nodes[i].Deps = append(nodes[i].Deps, int32(rng.Intn(n)))
		}
	}
	return NewGraph(nodes)
}

// TestTopoOrderMatchesReference requires TopoOrder to return the
// reference's order, or its error, on random acyclic and cyclic graphs.
func TestTopoOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng, rng.Intn(60), trial%3 == 0)
		got, err := g.TopoOrder()
		want, wantErr := topoOrderReference(g)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v (err %v), reference %v (err %v)", trial, got, err, want, wantErr)
		}
	}
}

// TestTopoOrderAllocs: the returned order plus one scratch slab.
func TestTopoOrderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	g := randomGraph(rand.New(rand.NewSource(1)), 512, false)
	if got := testing.AllocsPerRun(10, func() { g.TopoOrder() }); got != 2 {
		t.Fatalf("TopoOrder allocates %.0f times per call, want 2", got)
	}
}
