package medusa

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// checkImagesIsolated requires every image to end at its capacity and
// appending to any one to leave all the others unchanged: the images
// share a slab, so a sub-slice with spare capacity would let an append
// overwrite its neighbour.
func checkImagesIsolated(t *testing.T, what string, images [][]byte) {
	t.Helper()
	before := make([][]byte, len(images))
	for i, img := range images {
		if len(img) != cap(img) {
			t.Fatalf("%s: image %d has len %d, cap %d", what, i, len(img), cap(img))
		}
		before[i] = append([]byte(nil), img...)
	}
	for i := range images {
		_ = append(images[i], 0xAA, 0xBB, 0xCC, 0xDD)
		for j, img := range images {
			if !bytes.Equal(img, before[j]) {
				t.Fatalf("%s: appending to image %d changed image %d", what, i, j)
			}
		}
	}
}

func paramImages(n *NodeRecord) [][]byte {
	out := make([][]byte, len(n.Params))
	for i, p := range n.Params {
		out[i] = p.Raw
	}
	return out
}

// checkGraphSlabsIsolated checks a whole graph record: its nodes share
// per-graph slabs, so every image, param list and dependency list must
// be a len == cap share that no append can reach past.
func checkGraphSlabsIsolated(t *testing.T, what string, g *GraphRecord) {
	t.Helper()
	var images [][]byte
	var deps [][]int
	for ni := range g.Nodes {
		n := &g.Nodes[ni]
		images = append(images, paramImages(n)...)
		if cap(n.Params) != len(n.Params) {
			t.Fatalf("%s: node %d params have len %d, cap %d", what, ni, len(n.Params), cap(n.Params))
		}
		if n.Deps != nil {
			deps = append(deps, n.Deps)
		}
	}
	checkImagesIsolated(t, what+" images", images)
	checkIntsIsolated(t, what+" deps", deps)
}

// checkIntsIsolated is checkImagesIsolated for int lists.
func checkIntsIsolated(t *testing.T, what string, lists [][]int) {
	t.Helper()
	before := make([][]int, len(lists))
	for i, l := range lists {
		if len(l) != cap(l) {
			t.Fatalf("%s: list %d has len %d, cap %d", what, i, len(l), cap(l))
		}
		before[i] = slices.Clone(l)
	}
	for i := range lists {
		_ = append(lists[i], -1, -1)
		for j, l := range lists {
			if !slices.Equal(l, before[j]) {
				t.Fatalf("%s: appending to list %d changed list %d", what, i, j)
			}
		}
	}
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
	var images [][]byte
	var ints [][]int
	for _, node := range nodes {
		images = append(images, node.Params...)
		ints = append(ints, node.ParamSizes)
		if node.Deps != nil {
			ints = append(ints, node.Deps)
		}
	}
	checkImagesIsolated(t, "restored images", images)
	checkIntsIsolated(t, "restored sizes and deps", ints)
	for ni, node := range nodes {

		// Restored images are copies: mutating one must not reach the
		// artifact's records.
		nr := &back.Graphs[0].Nodes[ni]
		want := make([][]byte, len(nr.Params))
		for pi, pr := range nr.Params {
			want[pi] = append([]byte(nil), pr.Raw...)
		}
		for _, img := range node.Params {
			for i := range img {
				img[i] ^= 0xFF
			}
		}
		for pi, pr := range nr.Params {
			if !bytes.Equal(pr.Raw, want[pi]) {
				t.Fatalf("restored node %d: mutating its params changed ParamRecord %d's Raw", ni, pi)
			}
		}
	}
}

// TestEmptyParamImageDecodesNonNil pins the presence rule blob
// documents for the slab path: an image written with zero bytes must
// decode as a non-nil empty slice, not nil.
func TestEmptyParamImageDecodesNonNil(t *testing.T) {
	a := &Artifact{
		ModelName: "empty-image",
		Graphs: []GraphRecord{{Batch: 1, Nodes: []NodeRecord{{
			KernelName: "k",
			Params:     []ParamRecord{{Raw: []byte{}}, {Raw: []byte{1, 2, 3, 4}}, {Raw: []byte{}}},
		}}}},
		Kernels: map[string]KernelLoc{"k": {Library: "lib.so"}},
	}
	var w wireWriter
	a.encodeBodyChecksummed(&w, func(string) {})
	back, _, _, err := parseBody(w.buf, true)
	if err != nil {
		t.Fatal(err)
	}
	params := back.Graphs[0].Nodes[0].Params
	for _, pi := range []int{0, 2} {
		if params[pi].Raw == nil || len(params[pi].Raw) != 0 {
			t.Fatalf("empty image %d decoded as %#v, want a non-nil empty slice", pi, params[pi].Raw)
		}
	}
	if !bytes.Equal(params[1].Raw, []byte{1, 2, 3, 4}) {
		t.Fatalf("image 1 decoded as %v", params[1].Raw)
	}
	checkImagesIsolated(t, "decoded with empty images", paramImages(&back.Graphs[0].Nodes[0]))
}

// TestScanGraphBoundedByInput pins parseBody's pre-scan: on a valid
// graph it counts exactly the graph's deps, params and image bytes;
// on any truncation or corruption it never counts more records than
// the remaining input bytes could hold, so the slabs it sizes stay
// bounded by the input.
func TestScanGraphBoundedByInput(t *testing.T) {
	p, rec := offlineBenchFixture(t, 12)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "scan", SkipContents: true})
	if err != nil {
		t.Fatal(err)
	}
	g := &art.Graphs[0]
	g.Nodes[5].Deps = []int{0, 2, 4} // vary the dep counts
	var w wireWriter
	encodeGraph(&w, g)
	body := w.buf[8:] // after batch and node count
	nNodes := uint32(len(g.Nodes))

	var wantDeps, wantParams, wantImages int
	for _, n := range g.Nodes {
		wantDeps += len(n.Deps)
		wantParams += len(n.Params)
		for _, pr := range n.Params {
			wantImages += len(pr.Raw)
		}
	}
	deps, params, images := scanGraph(body, nNodes)
	if deps != wantDeps || params != wantParams || images != wantImages {
		t.Fatalf("scan of a valid graph = (%d, %d, %d), want (%d, %d, %d)",
			deps, params, images, wantDeps, wantParams, wantImages)
	}

	bounded := func(what string, in []byte, n uint32) {
		t.Helper()
		deps, params, images := scanGraph(in, n)
		if deps < 0 || params < 0 || images < 0 {
			t.Fatalf("%s: negative counts (%d, %d, %d)", what, deps, params, images)
		}
		if need := 4*deps + minParamWire*params + images; need > len(in) {
			t.Fatalf("%s: counts (%d, %d, %d) describe %d bytes, input has %d",
				what, deps, params, images, need, len(in))
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
