package medusa

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// TestParamRecordSize pins the inline image layout: an 8-byte image
// array, its width, the pointer flag, a 32-bit indirect index and the
// offset fit in 24 bytes, half a slice-backed record.
func TestParamRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(ParamRecord{}); got > 24 {
		t.Fatalf("ParamRecord is %d bytes, want at most 24", got)
	}
}

// TestAnalyzeRejectsOversizedImage: a captured parameter claiming a
// width over the 8-byte inline image fails analysis itself, naming the
// graph, node and param, instead of reaching the artifact's validation
// (or slicing past the image).
func TestAnalyzeRejectsOversizedImage(t *testing.T) {
	p, rec := offlineBenchFixture(t, 4)
	rec.graphs[0].graph.Nodes()[2].Params[1].Size = 9
	_, err := Analyze(rec, p, AnalyzeOptions{ModelName: "oversized", SkipContents: true})
	const want = "medusa: graph 1 node 2 param 1: 9-byte image exceeds limit 8"
	if err == nil || err.Error() != want {
		t.Fatalf("Analyze error = %v, want %q", err, want)
	}
	if strings.Contains(err.Error(), "inconsistent artifact") {
		t.Fatalf("oversized image reached validation: %v", err)
	}
}

// checkIsolated requires every list to end at its capacity and
// appending to any one to leave all the others unchanged: the lists
// share a slab, so a sub-slice with spare capacity would let an append
// overwrite its neighbour.
func checkIsolated[T comparable](t *testing.T, what string, lists [][]T, fill T) {
	t.Helper()
	before := make([][]T, len(lists))
	for i, l := range lists {
		if len(l) != cap(l) {
			t.Fatalf("%s: list %d has len %d, cap %d", what, i, len(l), cap(l))
		}
		before[i] = slices.Clone(l)
	}
	for i := range lists {
		_ = append(lists[i], fill, fill, fill, fill)
		for j, l := range lists {
			if !slices.Equal(l, before[j]) {
				t.Fatalf("%s: appending to list %d changed list %d", what, i, j)
			}
		}
	}
}

// checkGraphSlabsIsolated checks a whole graph record: its nodes share
// per-graph slabs, so every param list and dependency list must be a
// len == cap share that no append can reach past. Images are inline:
// each Raw() ends at its capacity, so an append copies instead of
// writing into the record's unused image bytes.
func checkGraphSlabsIsolated(t *testing.T, what string, g *GraphRecord) {
	t.Helper()
	var params [][]ParamRecord
	var deps [][]int32
	for ni := range g.Nodes {
		n := &g.Nodes[ni]
		params = append(params, n.Params)
		if n.Deps != nil {
			deps = append(deps, n.Deps)
		}
		for pi := range n.Params {
			p := &n.Params[pi]
			before := *p
			img := p.Raw()
			if len(img) != int(p.Size) || cap(img) != int(p.Size) {
				t.Fatalf("%s: node %d param %d image has len %d, cap %d, size %d", what, ni, pi, len(img), cap(img), p.Size)
			}
			_ = append(img, 0xAA, 0xBB, 0xCC, 0xDD)
			if *p != before {
				t.Fatalf("%s: appending to node %d param %d's image changed the record", what, ni, pi)
			}
			if tail := p.Image[p.Size:]; !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("%s: node %d param %d has non-zero bytes %v past its %d-byte image", what, ni, pi, tail, p.Size)
			}
		}
	}
	checkIsolated(t, what+" params", params, ParamRecord{Size: 8})
	checkIsolated(t, what+" deps", deps, -1)
}

func TestParamSlabsIsolateImages(t *testing.T) {
	p, rec := offlineBenchFixture(t, 4)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "slab", SkipContents: true})
	if err != nil {
		t.Fatal(err)
	}
	checkGraphSlabsIsolated(t, "analyzed", &art.Graphs[0])

	raw, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphSlabsIsolated(t, "decoded", &back.Graphs[0])

	fresh := cuda.NewProcess(toyRuntime(), vclock.New(), cuda.Config{Seed: 2, Mode: gpu.CostOnly})
	rest, err := NewRestorer(fresh, back)
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		t.Fatal(err)
	}
	execs, err := rest.RestoreGraphs(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := execs[back.Graphs[0].Batch].Graph().Nodes()
	var params [][]cuda.Param
	var deps [][]int32
	for _, node := range nodes {
		params = append(params, node.Params)
		if node.Deps != nil {
			deps = append(deps, node.Deps)
		}
	}
	checkIsolated(t, "restored params", params, cuda.Param{Size: 8})
	checkIsolated(t, "restored deps", deps, -1)
	for ni, node := range nodes {

		// Restored images are copies: mutating one must not reach the
		// artifact's records.
		nr := &back.Graphs[0].Nodes[ni]
		want := make([][]byte, len(nr.Params))
		for pi, pr := range nr.Params {
			want[pi] = append([]byte(nil), pr.Raw()...)
		}
		for pi := range node.Params {
			for i := range node.Params[pi].Image {
				node.Params[pi].Image[i] ^= 0xFF
			}
		}
		for pi, pr := range nr.Params {
			if !bytes.Equal(pr.Raw(), want[pi]) {
				t.Fatalf("restored node %d: mutating its params changed ParamRecord %d's image", ni, pi)
			}
		}
	}
}

// TestEmptyParamImageDecodesNonNil pins the presence rule for images:
// an image written with zero bytes decodes as a zero-size record
// whose Raw() is a non-nil empty slice, beside its neighbours' images,
// and re-encodes to the same bytes.
func TestEmptyParamImageDecodesNonNil(t *testing.T) {
	a := &Artifact{
		ModelName: "empty-image",
		Graphs: []GraphRecord{{Batch: 1, Nodes: []NodeRecord{{
			KernelName: "k",
			Params:     []ParamRecord{{}, {Image: [8]byte{1, 2, 3, 4}, Size: 4}, {}},
		}}}},
		Kernels: map[string]KernelLoc{"k": {Library: "lib.so"}},
	}
	body := a.appendBody(nil)
	back, _, _, err := parseBody(body)
	if err != nil {
		t.Fatal(err)
	}
	params := back.Graphs[0].Nodes[0].Params
	for _, pi := range []int{0, 2} {
		if img := params[pi].Raw(); img == nil || len(img) != 0 || params[pi] != (ParamRecord{}) {
			t.Fatalf("empty image %d decoded as %#v (Raw %#v), want a zero record with a non-nil empty image", pi, params[pi], img)
		}
	}
	if !bytes.Equal(params[1].Raw(), []byte{1, 2, 3, 4}) {
		t.Fatalf("image 1 decoded as %v", params[1].Raw())
	}
	if !bytes.Equal(back.appendBody(nil), body) {
		t.Fatal("re-encoding the decoded empty images changed the bytes")
	}
	checkGraphSlabsIsolated(t, "decoded with empty images", &back.Graphs[0])
}

// TestScanGraphBoundedByInput pins parseGraph's pre-scan: on a valid
// graph it counts exactly the graph's nodes, deps and params and ends
// at its last byte; on any truncation or corruption it never counts
// more records than the input bytes it passed could hold, so the slabs
// it sizes stay bounded by the input, and it stops short only with an
// error.
func TestScanGraphBoundedByInput(t *testing.T) {
	p, rec := offlineBenchFixture(t, 12)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "scan", SkipContents: true})
	if err != nil {
		t.Fatal(err)
	}
	g := &art.Graphs[0]
	g.Nodes[5].Deps = []int32{0, 2, 4} // vary the dep counts
	body := appendGraph(nil, g)[8:]    // after batch and node count
	nNodes := uint32(len(g.Nodes))

	var wantDeps, wantParams int
	for _, n := range g.Nodes {
		wantDeps += len(n.Deps)
		wantParams += len(n.Params)
	}
	s := scanGraph(body, 0, nNodes)
	if s.nodes != len(g.Nodes) || s.deps != wantDeps || s.params != wantParams || s.end != len(body) || s.err != nil {
		t.Fatalf("scan of a valid graph = %+v, want (%d, %d, %d) ending at %d",
			s, len(g.Nodes), wantDeps, wantParams, len(body))
	}

	bounded := func(what string, in []byte, n uint32) {
		t.Helper()
		s := scanGraph(in, 0, n)
		if s.nodes < 0 || s.deps < 0 || s.params < 0 {
			t.Fatalf("%s: negative counts %+v", what, s)
		}
		if need := minNodeWire*s.nodes + 4*s.deps + minParamWire*s.params; need > s.end || s.end > len(in) {
			t.Fatalf("%s: counts %+v describe %d bytes, input has %d", what, s, need, len(in))
		}
		if s.nodes < int(n) && s.err == nil {
			t.Fatalf("%s: scan stopped at node %d of %d with no error", what, s.nodes, n)
		}
	}
	for k := 0; k <= len(body); k++ {
		bounded("truncated", body[:k], nNodes)
		bounded("truncated, hostile node count", body[:k], 1<<22)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		in := slices.Clone(body)
		for j := rng.Intn(4); j >= 0; j-- {
			in[rng.Intn(len(in))] = byte(rng.Intn(256))
		}
		bounded("corrupted", in, nNodes)
	}
	for _, hostile := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},                               // kernel name far past the input
		{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x00},                   // dep count past the input
		{0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x10, 0, 0, 8, 0, 0, 0}, // 4096 params, one image
	} {
		bounded("hostile", hostile, 1<<22)
	}
}
