package medusa

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// restoreFunc is RestoreGraphs or the eager reference.
type restoreFunc func(*Restorer, TriggerFunc) (map[int]*cuda.GraphExec, error)

// restoreToy restores a toy artifact in a fresh process as onlineRun
// does, through restore, with or without the trigger that loads the
// hidden module, and returns the virtual time it ended at and its
// error.
func restoreToy(t *testing.T, rt *cuda.Runtime, art *Artifact, restore restoreFunc, triggered bool) (time.Duration, error) {
	t.Helper()
	p := cuda.NewProcess(rt, vclock.New(), cuda.Config{Seed: 7100, Mode: gpu.Functional})
	rest, err := NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewStream()
	weights := mustMalloc(t, p, bufBytes)
	mustMalloc(t, p, bufBytes)
	mustMalloc(t, p, bufBytes)
	if err := rest.ReplayPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		t.Fatal(err)
	}
	trigger := func(int) error {
		ws := mustMalloc(t, p, 4)
		if err := p.Launch(s, "toy_hidden_sum", []cuda.Value{
			cuda.PtrValue(ws), cuda.PtrValue(weights), cuda.PtrValue(ws), cuda.U32Value(1),
		}); err != nil {
			return err
		}
		return p.Free(ws)
	}
	if !triggered {
		trigger = nil
	}
	_, err = restore(rest, trigger)
	return p.Clock().Now(), err
}

// TestRestoreGraphsErrorsMatchEager breaks a toy artifact once for
// every error the eager restore returned — and twice where two faults
// compete, to pin which one wins — and requires RestoreGraphs to
// return the eager reference's error, with the same text, at the same
// virtual time.
func TestRestoreGraphsErrorsMatchEager(t *testing.T) {
	rt := toyRuntime()
	// The toy graph is node 0 toy_scale (dst, src, 2.0, n), node 1
	// toy_hidden_sum (dst, weights, perm, n) and node 2 toy_seedmix
	// (dst, seed), each depending on the one before.
	cases := []struct {
		name      string
		want      string
		untrigger bool
		spoil     func(a *Artifact)
	}{
		{"kernel not in kernel table", `graph 1 node 0: kernel "toy_scale" not in artifact kernel table`, false,
			func(a *Artifact) { delete(a.Kernels, "toy_scale") }},
		{"kernel not in its library", "graph 1 node 0: ", false,
			func(a *Artifact) { a.Kernels["toy_scale"] = KernelLoc{Library: "libhidden.so", Exported: true} }},
		{"hidden kernel not triggered", `graph 1 node 1: hidden kernel "toy_hidden_sum" not found`, true,
			func(*Artifact) {}},
		{"indirect index never allocated", "graph 1 node 1: param 0: indirect index 9 was never allocated", false,
			func(a *Artifact) {
				a.AllocCount = 10
				a.Graphs[0].Nodes[1].Params[0].AllocIndex = 9
			}},
		{"indirect index before a later unknown kernel", "graph 1 node 1: param 0: indirect index 9", false,
			func(a *Artifact) {
				a.AllocCount = 10
				a.Graphs[0].Nodes[1].Params[0].AllocIndex = 9
				a.Graphs[0].Nodes[2].KernelName = "ghost_kernel"
			}},
		{"parameter count mismatch", "instantiate restored graph 1: cuda: kernel \"toy_seedmix\" parameter mismatch: node 2 has 1 params, kernel wants 2", false,
			func(a *Artifact) { a.Graphs[0].Nodes[2].Params = a.Graphs[0].Nodes[2].Params[:1] }},
		{"parameter size mismatch", "node 0 param 2 is 8 bytes, kernel wants 4", false,
			func(a *Artifact) { a.Graphs[0].Nodes[0].Params[2].Size = 8 }},
		{"dependency out of range", "instantiate restored graph 1: node 1 depends on invalid node 3", false,
			func(a *Artifact) { a.Graphs[0].Nodes[1].Deps = []int32{3} }},
		{"dependency cycle", "instantiate restored graph 1: cuda: graph has a dependency cycle (0 of 3 nodes ordered)", false,
			func(a *Artifact) { a.Graphs[0].Nodes[0].Deps = []int32{2} }},
		{"cycle before a parameter mismatch", "dependency cycle", false,
			func(a *Artifact) {
				a.Graphs[0].Nodes[0].Deps = []int32{2}
				a.Graphs[0].Nodes[0].Params[2].Size = 8
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(restore restoreFunc) (time.Duration, error) {
				art, _ := offlineRun(t, rt, 7000, false)
				c.spoil(art)
				return restoreToy(t, rt, art, restore, !c.untrigger)
			}
			lazyAt, lazyErr := run((*Restorer).RestoreGraphs)
			eagerAt, eagerErr := run((*Restorer).RestoreGraphsEager)
			if eagerErr == nil || !strings.Contains(eagerErr.Error(), c.want) {
				t.Fatalf("eager reference error = %v, want it to contain %q", eagerErr, c.want)
			}
			if lazyErr == nil || lazyErr.Error() != eagerErr.Error() {
				t.Fatalf("RestoreGraphs error = %v\nwant %v", lazyErr, eagerErr)
			}
			if lazyAt != eagerAt {
				t.Fatalf("RestoreGraphs failed at %v, eager reference at %v", lazyAt, eagerAt)
			}
		})
	}
}

// TestRestoreGraphsKeepsCudaErrorTypes: a parameter mismatch found
// at cold start still unwraps to the cuda layer's typed error.
func TestRestoreGraphsKeepsCudaErrorTypes(t *testing.T) {
	rt := toyRuntime()
	art, _ := offlineRun(t, rt, 7000, false)
	art.Graphs[0].Nodes[0].Params[2].Size = 8
	_, err := restoreToy(t, rt, art, (*Restorer).RestoreGraphs, true)
	if !errors.As(err, new(*cuda.ParamMismatchError)) {
		t.Fatalf("RestoreGraphs error %v does not unwrap to *cuda.ParamMismatchError", err)
	}
}
