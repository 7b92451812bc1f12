package medusa

import (
	"fmt"
	"sort"
)

// The §4 pointer heuristic can misfire: an 8-byte integer scalar (a
// sampling seed, a packed descriptor) may carry a high address prefix
// and even collide with a live allocation's address. Such a false
// positive would be "restored" to a different value online, corrupting
// kernel behaviour. The paper's answer is validation forwarding: run
// the original and the speculative (restored) graphs and compare
// outputs, then correct mismatches. This file implements the
// correction search.

// ParamGroup identifies a parameter position structurally: the same
// kernel at the same argument slot across all nodes and graphs. A
// misclassified scalar is misclassified everywhere the kernel appears,
// so corrections apply group-wide.
type ParamGroup struct {
	// KernelName is the kernel whose parameter slot the group spans.
	KernelName string
	// ParamIndex is the zero-based argument slot within that kernel.
	ParamIndex int
}

// PointerGroups returns every group currently classified as pointer,
// in deterministic order.
func (a *Artifact) PointerGroups() []ParamGroup {
	seen := make(map[ParamGroup]bool)
	var out []ParamGroup
	for _, g := range a.Graphs {
		for _, n := range g.Nodes {
			for pi, p := range n.Params {
				if !p.Pointer {
					continue
				}
				pg := ParamGroup{KernelName: n.KernelName, ParamIndex: pi}
				if !seen[pg] {
					seen[pg] = true
					out = append(out, pg)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].KernelName != out[j].KernelName {
			return out[i].KernelName < out[j].KernelName
		}
		return out[i].ParamIndex < out[j].ParamIndex
	})
	return out
}

// setGroupPointer flips every parameter of the group to pointer=v,
// returning how many parameters changed. Demoting to constant restores
// the original raw image (kept for exactly this purpose).
func (a *Artifact) setGroupPointer(pg ParamGroup, v bool) int {
	changed := 0
	for gi := range a.Graphs {
		g := &a.Graphs[gi]
		for ni := range g.Nodes {
			n := &g.Nodes[ni]
			if n.KernelName != pg.KernelName || pg.ParamIndex >= len(n.Params) {
				continue
			}
			p := &n.Params[pg.ParamIndex]
			if p.Pointer != v && p.Size == 8 {
				p.Pointer = v
				changed++
			}
		}
	}
	return changed
}

// ValidateFunc runs validation forwarding against the artifact's
// current speculation: it restores the graphs in a fresh process, runs
// them next to a reference, and returns the batch sizes whose outputs
// mismatched (empty means the artifact is sound). The engine supplies
// this; Medusa stays agnostic of what "forwarding" means.
type ValidateFunc func(a *Artifact) (mismatched []int, err error)

// CorrectionResult summarizes a validation-and-correction pass.
type CorrectionResult struct {
	// Rounds is how many validation forwardings ran.
	Rounds int
	// Demoted lists groups corrected from pointer to constant.
	Demoted []ParamGroup
}

// ValidateAndCorrect runs the paper's validation loop: if the
// speculative graphs misbehave, demote suspect pointer groups to
// constants one at a time, keeping each demotion only if it repairs a
// mismatching batch. It returns an error if mismatches survive all
// candidate corrections.
func (a *Artifact) ValidateAndCorrect(validate ValidateFunc) (CorrectionResult, error) {
	var res CorrectionResult
	mismatched, err := validate(a)
	res.Rounds++
	if err != nil {
		return res, fmt.Errorf("medusa: validation forwarding failed: %w", err)
	}
	if len(mismatched) == 0 {
		return res, nil
	}
	for _, pg := range a.PointerGroups() {
		if a.setGroupPointer(pg, false) == 0 {
			continue
		}
		m2, err := validate(a)
		res.Rounds++
		if err != nil {
			// A demotion that breaks restoration outright is wrong:
			// revert and keep searching.
			a.setGroupPointer(pg, true)
			continue
		}
		if len(m2) < len(mismatched) {
			res.Demoted = append(res.Demoted, pg)
			mismatched = m2
			if len(mismatched) == 0 {
				return res, nil
			}
			continue
		}
		a.setGroupPointer(pg, true) // no improvement: revert
	}
	return res, fmt.Errorf("medusa: %d batch(es) still mismatch after correction (first: %d)",
		len(mismatched), mismatched[0])
}
