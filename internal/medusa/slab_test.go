package medusa

import (
	"bytes"
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

func TestParamSlabsIsolateImages(t *testing.T) {
	p, rec := offlineBenchFixture(t, 4)
	art, err := Analyze(rec, p, AnalyzeOptions{ModelName: "slab", SkipContents: true})
	if err != nil {
		t.Fatal(err)
	}
	for ni := range art.Graphs[0].Nodes {
		checkImagesIsolated(t, "analyzed", paramImages(&art.Graphs[0].Nodes[ni]))
	}

	raw, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for ni := range back.Graphs[0].Nodes {
		checkImagesIsolated(t, "decoded", paramImages(&back.Graphs[0].Nodes[ni]))
	}

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
	for ni, node := range nodes {
		checkImagesIsolated(t, "restored", node.Params)

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
