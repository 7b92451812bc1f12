package cuda

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the graph in Graphviz format for inspection tooling.
// Node labels show the kernel name when the resolver knows the address
// (pass a Process-backed resolver), otherwise the raw address.
func (g *Graph) DOT(name string, resolve func(addr uint64) (string, bool)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range g.nodes {
		label := fmt.Sprintf("%#x", n.KernelAddr)
		if resolve != nil {
			if kn, ok := resolve(n.KernelAddr); ok {
				label = kn
			}
		}
		fmt.Fprintf(&b, "  n%d [label=\"%d: %s\\n%d params\"];\n", n.ID, n.ID, label, len(n.Params))
	}
	// Deterministic edge order.
	type edge struct{ from, to int }
	var edges []edge
	for _, n := range g.nodes {
		for _, d := range n.Deps {
			edges = append(edges, edge{from: int(d), to: n.ID})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	return b.String()
}

// KernelResolver returns a DOT resolver backed by the process's loaded
// kernel table.
func (p *Process) KernelResolver() func(addr uint64) (string, bool) {
	return func(addr uint64) (string, bool) {
		k, ok := p.KernelByAddr(addr)
		if !ok {
			return "", false
		}
		return k.Name(), true
	}
}
