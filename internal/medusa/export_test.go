package medusa

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
)

// Hooks for the external medusa_test package, which builds real zoo
// artifacts through the engine (package medusa cannot import engine).

// DeltaChecker runs checkDeltaPair through one reused encoder.
type DeltaChecker struct{ enc deltaEncoder }

// Check is checkDeltaPair.
func (c *DeltaChecker) Check(t testing.TB, what string, src, tgt []byte) {
	t.Helper()
	checkDeltaPair(t, &c.enc, what, src, tgt)
}

// CheckDeltaOracle checks every (source, target) pair EncodeDelta
// encodes for a against tmpl — the six template sections and the graph
// chain — against the oracle encoder, through one reused encoder as
// EncodeDelta does. The targets come from the same per-section and
// per-graph encoding steps EncodeDelta uses.
func CheckDeltaOracle(t testing.TB, a *Artifact, tmpl *Template) {
	t.Helper()
	var enc deltaEncoder
	for i, name := range bodySectionNames {
		if i == secGraphs {
			src := tmpl.sections[secGraphs]
			for gi := range a.Graphs {
				g := appendGraph(nil, &a.Graphs[gi])
				checkDeltaPair(t, &enc, a.ModelName+" graph chain", src, g)
				src = g
			}
			continue
		}
		checkDeltaPair(t, &enc, a.ModelName+" "+name, tmpl.sections[i], a.appendSection(nil, i))
	}
}

// RestoreGraphsEager is the eager restore RestoreGraphs replaced, kept
// as the reference the lazy restore is tested against: at cold start
// it builds every graph's nodes, wraps them in a cuda.Graph and
// instantiates it.
func (r *Restorer) RestoreGraphsEager(trigger TriggerFunc) (map[int]*cuda.GraphExec, error) {
	if r.cursor != len(r.art.AllocSeq) {
		return nil, fmt.Errorf("medusa: RestoreGraphs before replay finished (%d of %d events)",
			r.cursor, len(r.art.AllocSeq))
	}
	out := make(map[int]*cuda.GraphExec, len(r.art.Graphs))
	for gi := range r.art.Graphs {
		g := &r.art.Graphs[gi]
		if trigger != nil {
			if err := trigger(g.Batch); err != nil {
				return nil, fmt.Errorf("medusa: triggering-kernels for batch %d: %w", g.Batch, err)
			}
		}
		nodes, err := r.buildNodesEager(g)
		if err != nil {
			return nil, err
		}
		r.p.Clock().Advance(time.Duration(len(nodes)) * perNodeFillCost)
		ge, err := cuda.NewGraph(nodes).Instantiate(r.p)
		if err != nil {
			return nil, fmt.Errorf("medusa: instantiate restored graph %d: %w", g.Batch, err)
		}
		out[g.Batch] = ge
	}
	return out, nil
}

// buildNodesEager resolves each node's kernel and builds its
// parameter images, failing on the first unresolvable kernel or
// unallocated indirect index.
func (r *Restorer) buildNodesEager(g *GraphRecord) ([]*cuda.Node, error) {
	nodes := make([]*cuda.Node, len(g.Nodes))
	for ni := range g.Nodes {
		nr := &g.Nodes[ni]
		addr, err := r.resolveKernel(nr.KernelName)
		if err != nil {
			return nil, fmt.Errorf("medusa: graph %d node %d: %w", g.Batch, ni, err)
		}
		node := &cuda.Node{ID: ni, KernelAddr: addr, Deps: append([]int32(nil), nr.Deps...)}
		for pi, p := range nr.Params {
			var cp cuda.Param
			if p.Pointer {
				if !r.have[p.AllocIndex] {
					return nil, fmt.Errorf("medusa: graph %d node %d: param %d: indirect index %d was never allocated",
						g.Batch, ni, pi, p.AllocIndex)
				}
				binary.LittleEndian.PutUint64(cp.Image[:], r.addr[p.AllocIndex]+p.Offset)
				cp.Size = 8
			} else {
				cp.Size = uint8(copy(cp.Image[:], p.Raw()))
			}
			node.Params = append(node.Params, cp)
		}
		nodes[ni] = node
	}
	return nodes, nil
}

// Raw returns the parameter image, Image[:Size]. The slice aliases the
// record, and its capacity ends at Size, so appending to it copies.
func (p *ParamRecord) Raw() []byte { return p.Image[:p.Size:p.Size] }

// BodyCRC returns the checksum v3 artifacts pin their template by.
func (t *Template) BodyCRC() uint32 { return t.bodyCRC }
