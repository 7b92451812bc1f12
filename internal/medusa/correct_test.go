package medusa

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// artifactWithGroups builds a synthetic artifact with two pointer
// groups for correction-logic tests.
func artifactWithGroups() *Artifact {
	mkPtr := func() ParamRecord {
		return ParamRecord{Image: [8]byte{0, 0, 0, 0, 0, 0x40, 0x7f, 0}, Size: 8, Pointer: true, AllocIndex: 0}
	}
	return &Artifact{
		ModelName:  "synthetic",
		AllocCount: 1,
		AllocSeq:   []AllocRecord{{AllocIndex: 0, Size: 4096}},
		PrefixLen:  1,
		Graphs: []GraphRecord{
			{Batch: 1, Nodes: []NodeRecord{
				{KernelName: "alpha", Params: []ParamRecord{mkPtr(), {Image: [8]byte{1}, Size: 4}}},
				{KernelName: "beta", Params: []ParamRecord{mkPtr()}, Deps: []int32{0}},
			}},
			{Batch: 2, Nodes: []NodeRecord{
				{KernelName: "alpha", Params: []ParamRecord{mkPtr(), {Image: [8]byte{2}, Size: 4}}},
			}},
		},
		Kernels: map[string]KernelLoc{
			"alpha": {Library: "a.so", Exported: true},
			"beta":  {Library: "b.so", Exported: false},
		},
		KV: KVRecord{NumBlocks: 1, BlockBytes: 1},
	}
}

func TestPointerGroupsDeterministic(t *testing.T) {
	a := artifactWithGroups()
	g1 := a.PointerGroups()
	g2 := a.PointerGroups()
	if len(g1) != 2 {
		t.Fatalf("groups = %v", g1)
	}
	if g1[0].KernelName != "alpha" || g1[1].KernelName != "beta" {
		t.Fatalf("group order = %v", g1)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("PointerGroups not deterministic")
		}
	}
}

func TestSetGroupPointerAffectsAllGraphs(t *testing.T) {
	a := artifactWithGroups()
	changed := a.setGroupPointer(ParamGroup{KernelName: "alpha", ParamIndex: 0}, false)
	if changed != 2 {
		t.Fatalf("changed = %d, want both alpha nodes across graphs", changed)
	}
	if a.Stats().Pointers != 1 {
		t.Fatalf("pointers after demotion = %d", a.Stats().Pointers)
	}
	// Re-promote.
	if a.setGroupPointer(ParamGroup{KernelName: "alpha", ParamIndex: 0}, true) != 2 {
		t.Fatal("revert changed wrong count")
	}
	// 4-byte params are never flipped.
	if a.setGroupPointer(ParamGroup{KernelName: "alpha", ParamIndex: 1}, true) != 0 {
		t.Fatal("flipped a 4-byte constant to pointer")
	}
}

func TestValidateAndCorrectNoProgress(t *testing.T) {
	a := artifactWithGroups()
	calls := 0
	validate := func(*Artifact) ([]int, error) {
		calls++
		return []int{1, 2}, nil // every batch always mismatches
	}
	_, err := a.ValidateAndCorrect(validate)
	if err == nil {
		t.Fatal("uncorrectable artifact validated")
	}
	// All groups tried once plus the initial round.
	if calls != 1+len(a.PointerGroups()) {
		t.Fatalf("validate calls = %d", calls)
	}
	// Failed corrections must be reverted.
	if a.Stats().Pointers != 3 {
		t.Fatalf("pointers after failed correction = %d, want 3", a.Stats().Pointers)
	}
}

func TestValidateAndCorrectPartialProgress(t *testing.T) {
	a := artifactWithGroups()
	// Batch 1 is fixed by demoting beta's param; batch 2 never fixes.
	validate := func(art *Artifact) ([]int, error) {
		var mismatched []int
		betaPtr := false
		for _, g := range art.Graphs {
			for _, n := range g.Nodes {
				if n.KernelName == "beta" && n.Params[0].Pointer {
					betaPtr = true
				}
			}
		}
		if betaPtr {
			mismatched = append(mismatched, 1)
		}
		mismatched = append(mismatched, 2)
		return mismatched, nil
	}
	res, err := a.ValidateAndCorrect(validate)
	if err == nil {
		t.Fatal("partially correctable artifact fully validated")
	}
	// The productive demotion (beta) must be kept.
	kept := false
	for _, pg := range res.Demoted {
		if pg.KernelName == "beta" {
			kept = true
		}
	}
	if !kept {
		t.Fatalf("productive demotion not kept: %+v", res)
	}
}

func TestValidateAndCorrectValidationError(t *testing.T) {
	a := artifactWithGroups()
	boom := errors.New("boom")
	_, err := a.ValidateAndCorrect(func(*Artifact) ([]int, error) { return nil, boom })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestArtifactValidateRejectsMalformed(t *testing.T) {
	cases := map[string]func(*Artifact){
		"bad prefix":      func(a *Artifact) { a.PrefixLen = 99 },
		"bad alloc index": func(a *Artifact) { a.Graphs[0].Nodes[0].Params[0].AllocIndex = 5 },
		"dangling dep":    func(a *Artifact) { a.Graphs[0].Nodes[1].Deps = []int32{7} },
		"unknown kernel":  func(a *Artifact) { a.Graphs[0].Nodes[0].KernelName = "ghost" },
		// validate skips a node naming its kernel one graph before.
		"unknown kernel in a later graph": func(a *Artifact) { a.Graphs[1].Nodes[0].KernelName = "ghost" },
		"bad param width":                 func(a *Artifact) { a.Graphs[0].Nodes[0].Params[0].Size = 2 },
		"free out of range":               func(a *Artifact) { a.AllocSeq = append(a.AllocSeq, AllocRecord{Free: true, AllocIndex: 9}) },
		"perm size lie": func(a *Artifact) {
			a.Permanent = []PermRecord{{AllocIndex: 0, Size: 8, Contents: []byte{1}}}
		},
	}
	for name, corrupt := range cases {
		a := artifactWithGroups()
		corrupt(a)
		if _, err := a.Encode(); err == nil {
			t.Errorf("%s: Encode accepted malformed artifact", name)
		}
	}
}

// TestDecodeRejectsBadDeps: a dependency that names no node of its
// graph fails Decode's validation. Deps travel as u32 and decode as
// int32, so a wire value of 2^31 or more comes back negative and is
// rejected like one past the graph's last node.
func TestDecodeRejectsBadDeps(t *testing.T) {
	for _, dep := range []int32{2, 7, -1, math.MinInt32} {
		a := artifactWithGroups()
		a.Graphs[0].Nodes[1].Deps = []int32{0, dep}
		// Encode itself would refuse the artifact.
		raw := seal(a.appendBody(make([]byte, envelopeLen)), wireMagic, CurrentFormatVersion)
		_, err := Decode(raw)
		want := fmt.Sprintf("graph 1 node 1 has dangling dep %d", dep)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("wire dep %#x: Decode error = %v, want %q", uint32(dep), err, want)
		}
	}
}
