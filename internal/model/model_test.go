package model

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// TotalGraphNodes returns the summed node count over all capture sizes
// — the Table 1 "CUDA graph nodes" figure the zoo tests check.
func (c Config) TotalGraphNodes(captureSizes []int) int {
	total := 0
	for _, b := range captureSizes {
		total += c.NodesPerGraph(b, captureSizes)
	}
	return total
}

// tinyOf is TestTiny with the layer family f.
func tinyOf(name string, f Family) Config {
	c := TestTiny(name)
	c.Family = f
	return c
}

func TestCaptureBatchSizes(t *testing.T) {
	sizes := CaptureBatchSizes()
	if len(sizes) != 35 {
		t.Fatalf("capture sizes = %d, want 35 (vLLM default)", len(sizes))
	}
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 4 || sizes[3] != 8 || sizes[34] != 256 {
		t.Fatalf("capture sizes = %v", sizes)
	}
	if MaxCaptureBatch() != 256 {
		t.Fatalf("MaxCaptureBatch = %d", MaxCaptureBatch())
	}
}

// TestTable1NodeCounts verifies the calibration reproduces Table 1
// exactly: per-model node counts and the 139364 total.
func TestTable1NodeCounts(t *testing.T) {
	want := map[string]int{
		"Falcon-7B":    14406,
		"Llama2-7B":    12518,
		"Llama2-13B":   16150,
		"Qwen1.5-0.5B": 9118,
		"Qwen1.5-1.8B": 9550,
		"Qwen1.5-4B":   16150,
		"Qwen1.5-7B":   12902,
		"Qwen1.5-14B":  16350,
		"Yi-6B":        12902,
		"Yi-9B":        19318,
	}
	sizes := CaptureBatchSizes()
	total := 0
	for _, c := range Zoo() {
		got := c.TotalGraphNodes(sizes)
		if got != want[c.Name] {
			t.Errorf("%s: total graph nodes = %d, want %d", c.Name, got, want[c.Name])
		}
		total += got
	}
	if total != PaperTotalGraphNodes {
		t.Errorf("zoo total = %d, want %d", total, PaperTotalGraphNodes)
	}
}

func TestTable1ParamSizes(t *testing.T) {
	want := map[string]float64{
		"Falcon-7B": 13.4, "Llama2-7B": 12.6, "Llama2-13B": 24.2,
		"Qwen1.5-0.5B": 1.2, "Qwen1.5-1.8B": 3.4, "Qwen1.5-4B": 7.4,
		"Qwen1.5-7B": 14.4, "Qwen1.5-14B": 26.4, "Yi-6B": 11.3, "Yi-9B": 16.4,
	}
	for _, c := range Zoo() {
		gotGB := float64(c.ParamBytes) / (1 << 30)
		if diff := gotGB - want[c.Name]; diff > 0.001 || diff < -0.001 {
			t.Errorf("%s: param size %.2f GB, want %.1f", c.Name, gotGB, want[c.Name])
		}
	}
}

func TestZooValidates(t *testing.T) {
	for _, c := range Zoo() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Functional {
			t.Errorf("%s: zoo model marked functional", c.Name)
		}
	}
	for _, c := range []Config{TestTiny("t"), tinyOf("t", FamilyFused), tinyOf("t", FamilyParallel)} {
		if err := c.Validate(); err != nil {
			t.Errorf("tiny %s/%s: %v", c.Name, c.Family, err)
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("Qwen1.5-4B")
	if err != nil || c.Layers != 40 {
		t.Fatalf("ByName = %+v, %v", c, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Fatal("unknown model resolved")
	}
}

func TestGraphPaddingGoesToLargestBatches(t *testing.T) {
	c, _ := ByName("Qwen1.5-4B") // 15 padded graphs
	sizes := CaptureBatchSizes()
	padded := 0
	for _, b := range sizes {
		if c.GraphPadded(b, sizes) {
			padded++
			if b < 144 { // 15 largest of the 35 sizes are 144..256
				t.Errorf("batch %d padded but is not among the 15 largest", b)
			}
		}
	}
	if padded != 15 {
		t.Fatalf("padded graphs = %d, want 15", padded)
	}
	if c.NodesPerGraph(256, sizes) != c.BaseNodesPerGraph()+1 {
		t.Fatal("largest batch missing padding node")
	}
	if c.NodesPerGraph(1, sizes) != c.BaseNodesPerGraph() {
		t.Fatal("batch 1 unexpectedly padded")
	}
}

func TestFamilyKernelCounts(t *testing.T) {
	if FamilyStandard.KernelsPerLayer() != 11 ||
		FamilyFused.KernelsPerLayer() != 10 ||
		FamilyParallel.KernelsPerLayer() != 12 {
		t.Fatal("family kernel counts wrong")
	}
}

func TestTensorsStructure(t *testing.T) {
	c := TestTiny("tiny")
	specs := c.Tensors()
	// embed + 6 per layer × 2 layers + final norm + lm_head.
	if len(specs) != 1+6*2+2 {
		t.Fatalf("tensor count = %d", len(specs))
	}
	if specs[0].Name != "embed_tokens" || specs[0].Layer != -1 {
		t.Fatalf("first tensor = %+v", specs[0])
	}
	last := specs[len(specs)-1]
	if last.Name != "lm_head" {
		t.Fatalf("last tensor = %+v", last)
	}
	cp := tinyOf("tinyp", FamilyParallel)
	if len(cp.Tensors()) != 1+7*2+2 {
		t.Fatalf("parallel tensor count = %d", len(cp.Tensors()))
	}
}

func TestWeightBytesAccounting(t *testing.T) {
	c := TestTiny("tiny")
	var sum uint64
	for _, s := range c.Tensors() {
		sum += c.TensorBytes(s)
	}
	if sum != c.WeightBytesTotal() {
		t.Fatal("WeightBytesTotal mismatch")
	}
	if c.LoadBytes() != c.WeightBytesTotal() {
		t.Fatal("functional LoadBytes should equal structural total")
	}
	big, _ := ByName("Llama2-13B")
	if big.LoadBytes() != big.ParamBytes {
		t.Fatal("zoo LoadBytes should be the published size")
	}
	// Cost-only tensors are fp16: half the functional footprint.
	spec := TensorSpec{Name: "x", Elems: 100}
	if big.TensorBytes(spec) != 200 || c.TensorBytes(spec) != 400 {
		t.Fatal("TensorBytes element width wrong")
	}
}

func TestTensorDataDeterministic(t *testing.T) {
	c := TestTiny("tiny")
	s := c.Tensors()[1]
	a, b := c.TensorData(s), c.TensorData(s)
	if !bytes.Equal(a, b) {
		t.Fatal("TensorData not deterministic")
	}
	other := c.TensorData(c.Tensors()[2])
	if bytes.Equal(a, other) {
		t.Fatal("distinct tensors share data")
	}
	c2 := TestTiny("tiny2")
	if bytes.Equal(a, c2.TensorData(s)) {
		t.Fatal("distinct models share tensor data")
	}
	if len(a) != s.Elems*4 {
		t.Fatalf("tensor data length = %d", len(a))
	}
}

// Property: for any subset of capture sizes and any padding count, the
// padding always lands on the largest sizes and total node accounting
// is consistent.
func TestNodeAccountingProperty(t *testing.T) {
	f := func(padRaw uint8) bool {
		c := TestTiny("prop")
		c.PaddedGraphs = int(padRaw % 40)
		sizes := CaptureBatchSizes()
		total := 0
		padded := 0
		for _, b := range sizes {
			n := c.NodesPerGraph(b, sizes)
			total += n
			if n == c.BaseNodesPerGraph()+1 {
				padded++
			}
		}
		wantPadded := c.PaddedGraphs
		if wantPadded > len(sizes) {
			wantPadded = len(sizes)
		}
		return padded == wantPadded && total == c.TotalGraphNodes(sizes) &&
			total == len(sizes)*c.BaseNodesPerGraph()+wantPadded
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCostScalingInputs verifies the structural quantities the cost
// model scales with behave monotonically across the zoo: more layers
// never means fewer graph nodes, and more parameters never means fewer
// weight bytes to stream.
func TestCostScalingInputs(t *testing.T) {
	sizes := CaptureBatchSizes()
	for _, a := range Zoo() {
		for _, b := range Zoo() {
			if a.Layers > b.Layers && a.Family.KernelsPerLayer() >= b.Family.KernelsPerLayer() &&
				a.EpilogueNodes >= b.EpilogueNodes && a.PaddedGraphs >= b.PaddedGraphs {
				if a.TotalGraphNodes(sizes) < b.TotalGraphNodes(sizes) {
					t.Errorf("%s structurally ≥ %s but has fewer nodes", a.Name, b.Name)
				}
			}
			if a.ParamBytes > b.ParamBytes && a.LoadBytes() < b.LoadBytes() {
				t.Errorf("%s bigger than %s but streams fewer bytes", a.Name, b.Name)
			}
		}
	}
}

func TestShardTensorsConsistency(t *testing.T) {
	for _, name := range []string{"Llama2-13B", "Qwen1.5-14B"} {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var fullBytes uint64
		for _, s := range cfg.Tensors() {
			fullBytes += cfg.TensorBytes(s)
		}
		for _, degree := range []int{2, 4} {
			var shardSum uint64
			for rank := 0; rank < degree; rank++ {
				shard, err := cfg.Shard(rank, degree)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range shard.Tensors() {
					shardSum += shard.TensorBytes(s)
				}
				if shard.TotalGraphNodes(CaptureBatchSizes()) != cfg.TotalGraphNodes(CaptureBatchSizes()) {
					t.Fatalf("%s tp%d: graph shape changed under sharding", name, degree)
				}
			}
			// Shards replicate embeddings/norms, so the sum exceeds the
			// full model but by less than the replicated part times TP.
			if shardSum < fullBytes {
				t.Fatalf("%s tp%d: shards sum to %d < full %d", name, degree, shardSum, fullBytes)
			}
			if shardSum > fullBytes*2 {
				t.Fatalf("%s tp%d: shards sum to %d, replication overhead implausible", name, degree, shardSum)
			}
			if shard, _ := cfg.Shard(0, degree); shard.LoadBytes() != cfg.ParamBytes/uint64(degree) {
				t.Fatalf("%s tp%d: rank streams %d bytes, want %d", name, degree, shard.LoadBytes(), cfg.ParamBytes/uint64(degree))
			}
		}
	}
}

// TestTensorNamesMatchFormatted pins the concatenated tensor names to
// the "layers.<l>.<suffix>" format, with exact capacity, for every zoo
// model and both tiny families.
func TestTensorNamesMatchFormatted(t *testing.T) {
	suffixes := []string{"input_norm", "wqkv", "wo", "post_norm", "wgateup", "wdown"}
	for _, c := range append(Zoo(), TestTiny("tiny"), tinyOf("tinyp", FamilyParallel)) {
		layer := suffixes
		if c.Family == FamilyParallel {
			layer = append(slices.Clone(suffixes), "attn_bias")
		}
		want := []string{"embed_tokens"}
		for l := 0; l < c.Layers; l++ {
			for _, s := range layer {
				want = append(want, fmt.Sprintf("layers.%d.%s", l, s))
			}
		}
		want = append(want, "final_norm", "lm_head")
		specs := c.Tensors()
		if len(specs) != cap(specs) {
			t.Errorf("%s: %d tensors in a slice of capacity %d", c.Name, len(specs), cap(specs))
		}
		var got []string
		for _, s := range specs {
			got = append(got, s.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: tensor names = %v, want %v", c.Name, got, want)
		}
	}
}
