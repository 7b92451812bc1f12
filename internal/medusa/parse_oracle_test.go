package medusa

import (
	"reflect"
	"testing"
)

// parseGraphOracle is the field-by-field graph parse that parseGraph
// replaced, kept as its reference: every field goes through the
// reader's checked take, and a node's deps and params grow by append.
// Unlike parseGraph it keeps the node it stopped in.
func parseGraphOracle(r *wireReader, names map[string]string) GraphRecord {
	var g GraphRecord
	g.Batch = int(r.u32())
	nNodes := r.u32()
	if nNodes > 1<<22 {
		r.fail("graph with %d nodes", nNodes)
	}
	if nNodes > 0 && r.err == nil {
		g.Nodes = make([]NodeRecord, 0, r.capFor(nNodes, minNodeWire))
	}
	for ni := uint32(0); ni < nNodes && r.err == nil; ni++ {
		var n NodeRecord
		name := r.view("kernel name", 1<<20)
		var ok bool
		if n.KernelName, ok = names[string(name)]; !ok {
			n.KernelName = string(name)
			names[n.KernelName] = n.KernelName
		}
		nDeps := r.u32()
		if nDeps > nNodes {
			r.fail("node with %d deps", nDeps)
		}
		for di := uint32(0); di < nDeps && r.err == nil; di++ {
			n.Deps = append(n.Deps, int32(r.u32()))
		}
		nParams := r.u32()
		if nParams > 1<<12 {
			r.fail("node with %d params", nParams)
		}
		for pi := uint32(0); pi < nParams && r.err == nil; pi++ {
			var p ParamRecord
			if size := r.u32(); size > maxParamImage {
				r.fail("param image of %d bytes exceeds limit %d", size, maxParamImage)
			} else {
				p.Size = uint8(copy(p.Image[:], r.take(int(size))))
			}
			p.Pointer = r.boolean()
			p.AllocIndex = int32(r.u32())
			p.Offset = r.u64()
			n.Params = append(n.Params, p)
		}
		g.Nodes = append(g.Nodes, n)
	}
	return g
}

// zooShapedGraph is a graph shaped like a zoo model's: transformer
// layers of a dozen kernels, some run over several nodes in a row, a
// residual dep per layer, and nodes of two to nine params mixing
// 8-byte pointers with 4- and 8-byte scalars.
func zooShapedGraph() GraphRecord {
	kernels := []string{
		"rms_norm", "gemm_qkv", "rotary_emb", "reshape_and_cache", "paged_attention_v1",
		"gemm_o", "residual_add", "rms_norm", "gemm_gate_up", "gemm_gate_up", "silu_and_mul", "gemm_down",
	}
	g := GraphRecord{Batch: 8}
	for layer := 0; layer < 3; layer++ {
		for ki, k := range kernels {
			ni := len(g.Nodes)
			n := NodeRecord{KernelName: k}
			if ni > 0 {
				n.Deps = append(n.Deps, int32(ni-1))
			}
			if ki == len(kernels)-1 && ni >= len(kernels) {
				n.Deps = append(n.Deps, int32(ni-len(kernels)+1))
			}
			for pi := 0; pi < 2+(ni*5)%8; pi++ {
				p := ParamRecord{Size: 4, Image: [8]byte{byte(ni), byte(pi), 0, 0}}
				switch pi % 3 {
				case 0:
					p = ParamRecord{Size: 8, Pointer: true, AllocIndex: int32(ni + pi), Offset: uint64(256 * pi),
						Image: [8]byte{0, 0x10, byte(ni), 0, 0, 0x7f}}
				case 1:
					p.Size = 8
				}
				n.Params = append(n.Params, p)
			}
			g.Nodes = append(g.Nodes, n)
		}
	}
	return g
}

// FuzzParseGraphOracle requires parseGraph to parse any node encodings,
// under any node count, exactly as parseGraphOracle does: the same
// records (nil and empty slices alike) of every node the oracle
// completed, the same error message and the same end offset. There is
// no envelope or section checksum in front of the parser, so every
// fuzzed input reaches it.
func FuzzParseGraphOracle(f *testing.F) {
	g := zooShapedGraph()
	nodes := appendGraph(nil, &g)[8:] // after the batch and node count
	n := uint32(len(g.Nodes))
	for k := 0; k <= len(nodes); k++ {
		f.Add(nodes[:k], n)
	}
	short := GraphRecord{Nodes: []NodeRecord{{KernelName: "k", Params: []ParamRecord{
		{Image: [8]byte{1, 2, 3, 4}, Size: 4, Pointer: true, AllocIndex: 7, Offset: 9},
		{Pointer: true, AllocIndex: -1, Offset: 1<<64 - 1},
	}}}}
	f.Add(appendGraph(nil, &short)[8:], uint32(1))                                  // short images before set fields
	f.Add(nodes, uint32(1<<22+1))                                                   // more nodes than the limit
	f.Add(appendU32(nil, 1<<20+1), uint32(1))                                       // a name over 1 MiB
	f.Add(append(appendU32(nil, 1<<20), 'k'), uint32(1))                            // a 1 MiB name, truncated
	f.Add(appendU32(appendStr(nil, "k"), 3), uint32(2))                             // more deps than nodes
	f.Add(appendU32(appendU32(appendStr(nil, "k"), 0), 1<<12+1), uint32(1))         // too many params
	f.Add(appendU32(appendU32(appendU32(appendStr(nil, "k"), 0), 1), 9), uint32(1)) // a 9-byte image

	prev := g.Nodes // names intern through the zoo-shaped graph's nodes
	f.Fuzz(func(t *testing.T, nodes []byte, nNodes uint32) {
		// A prefix in front of the graph keeps the offsets in errors
		// honest: they count from the start of the reader's input.
		in := appendU32(appendU32([]byte{0xa5, 0x5a, 0xa5}, 8), nNodes)
		in = append(in, nodes...)
		got, want := wireReader{p: in, off: 3}, wireReader{p: in, off: 3}
		gotG := parseGraph(&got, map[string]string{}, prev)
		wantG := parseGraphOracle(&want, map[string]string{})
		if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
			t.Fatalf("error %v, oracle's %v", got.err, want.err)
		}
		if got.off != want.off {
			t.Fatalf("parse ends at offset %d, oracle's at %d (error %v)", got.off, want.off, got.err)
		}
		if want.err != nil && len(wantG.Nodes) > 0 {
			wantG.Nodes = wantG.Nodes[:len(wantG.Nodes)-1] // the node the oracle stopped in
		}
		if !reflect.DeepEqual(gotG, wantG) {
			t.Fatalf("records differ from the oracle's (error %v):\ngot  %+v\nwant %+v", got.err, gotG, wantG)
		}
	})
}
