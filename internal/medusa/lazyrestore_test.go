package medusa_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
	"github.com/medusa-repro/medusa/internal/dl"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/gpu"
	"github.com/medusa-repro/medusa/internal/kernels"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/vclock"
)

// handRestore restores art in a fresh process the way the engine's
// restore stage does, but with every allocation replayed (no engine
// control flow) and a trigger that loads each hidden kernel's module
// by name. restore is RestoreGraphs or the eager reference.
func handRestore(t *testing.T, art *medusa.Artifact, mode gpu.ExecMode,
	restore func(*medusa.Restorer, medusa.TriggerFunc) (map[int]*cuda.GraphExec, error),
) (*cuda.Process, map[int]*cuda.GraphExec) {
	t.Helper()
	p := cuda.NewProcess(kernels.NewRuntime(), vclock.New(), cuda.Config{Seed: 41, Mode: mode})
	rest, err := medusa.NewRestorer(p, art)
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := rest.ReplayCaptureStage(); err != nil {
		t.Fatal(err)
	}
	trigger := func(batch int) error {
		g, _ := art.Graph(batch)
		for _, n := range g.Nodes {
			loc := art.Kernels[n.KernelName]
			if _, loaded := p.KernelByName(n.KernelName); loaded || loc.Exported {
				continue
			}
			if _, err := p.GetFuncBySymbol(dl.SymbolHandle{Library: loc.Library, Name: n.KernelName}); err != nil {
				return err
			}
		}
		return nil
	}
	graphs, err := restore(rest, trigger)
	if err != nil {
		t.Fatal(err)
	}
	return p, graphs
}

// TestLazyRestoreMatchesEager restores a cost-only zoo model and a
// functional one twice from the same seed, through RestoreGraphs and
// through the eager reference, and requires the same virtual time at
// the end of the restore and, for every batch, the same launch time,
// launch outputs (every buffer a node points at) and graph: node ids,
// kernel addresses, parameter images and sizes, deps and topological
// order. The lazy graph is first built by its launch. With no engine
// to load weights and prime inputs, the functional model's buffers
// start as primeBuffers leaves them.
func TestLazyRestoreMatchesEager(t *testing.T) {
	zoo, err := model.ByName("Qwen1.5-0.5B")
	if err != nil {
		t.Fatal(err)
	}
	zoo.Functional = false
	for _, cfg := range []model.Config{zoo, model.TestTiny("lazy-restore")} {
		t.Run(cfg.Name, func(t *testing.T) {
			art, _, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			mode := gpu.CostOnly
			if cfg.Functional {
				mode = gpu.Functional
			}
			lp, lazy := handRestore(t, art, mode, (*medusa.Restorer).RestoreGraphs)
			ep, eager := handRestore(t, art, mode, (*medusa.Restorer).RestoreGraphsEager)
			if lp.Clock().Now() != ep.Clock().Now() {
				t.Fatalf("restore ends at %v, eager reference at %v", lp.Clock().Now(), ep.Clock().Now())
			}
			if len(lazy) != len(eager) {
				t.Fatalf("%d graphs restored, eager reference has %d", len(lazy), len(eager))
			}
			ls, es := lp.NewStream(), ep.NewStream()
			var buffers []uint64 // every buffer a node parameter points into
			for _, ge := range eager {
				for _, n := range ge.Graph().Nodes() {
					for _, p := range n.Params {
						if p.Size != 8 {
							continue
						}
						if buf, _, ok := ep.Device().FindBuffer(binary.LittleEndian.Uint64(p.Image[:])); ok {
							buffers = append(buffers, buf.Addr())
						}
					}
				}
			}
			slices.Sort(buffers)
			buffers = slices.Compact(buffers)
			if cfg.Functional {
				primeBuffers(t, lp, buffers)
				primeBuffers(t, ep, buffers)
			}
			for _, b := range art.Batches() {
				ld, lerr := launchSpan(lp, ls, lazy[b])
				ed, eerr := launchSpan(ep, es, eager[b])
				if lerr != nil || eerr != nil {
					t.Fatalf("batch %d: launch failed: %v (eager: %v)", b, lerr, eerr)
				}
				if ld != ed {
					t.Fatalf("batch %d: launch took %v, eager %v", b, ld, ed)
				}
				lg, eg := lazy[b].Graph(), eager[b].Graph()
				sameGraph(t, b, lg, eg)
				for _, addr := range buffers {
					if !bytes.Equal(contents(t, lp, addr), contents(t, ep, addr)) {
						t.Fatalf("batch %d: buffer at %#x differs after launch", b, addr)
					}
				}
			}
		})
	}
}

// launchSpan launches ge on s and returns the virtual time it took.
func launchSpan(p *cuda.Process, s *cuda.Stream, ge *cuda.GraphExec) (time.Duration, error) {
	var err error
	d := p.Clock().Span(func() { err = ge.Launch(s) })
	return d, err
}

// contents snapshots the buffer holding addr; nil on a cost-only
// device.
func contents(t *testing.T, p *cuda.Process, addr uint64) []byte {
	t.Helper()
	if !p.Device().Functional() {
		return nil
	}
	buf, _, _ := p.Device().FindBuffer(addr)
	out, err := buf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// primeBuffers fills every still-zero buffer holding one of addrs with
// the 32-bit word 1, which every kernel input accepts: token id 1, KV
// block 1, sequence length 1, and a tiny float. Buffers the restore
// wrote (the permanent workspaces) keep their contents.
func primeBuffers(t *testing.T, p *cuda.Process, addrs []uint64) {
	t.Helper()
	for _, addr := range addrs {
		buf, _, _ := p.Device().FindBuffer(addr)
		if slices.ContainsFunc(contents(t, p, addr), func(b byte) bool { return b != 0 }) {
			continue
		}
		for i := 0; i < int(buf.Size()/4); i++ {
			if err := buf.SetUint32(i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameGraph requires two graphs to match node for node and in
// topological order.
func sameGraph(t *testing.T, batch int, got, want *cuda.Graph) {
	t.Helper()
	if got.NodeCount() != want.NodeCount() {
		t.Fatalf("batch %d: %d nodes, eager %d", batch, got.NodeCount(), want.NodeCount())
	}
	for i, n := range got.Nodes() {
		w := want.Nodes()[i]
		if n.ID != w.ID || n.KernelAddr != w.KernelAddr || !slices.Equal(n.Params, w.Params) || !slices.Equal(n.Deps, w.Deps) {
			t.Fatalf("batch %d node %d: %+v, eager %+v", batch, i, n, w)
		}
	}
	gotOrder, err := got.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder, err := want.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotOrder, wantOrder) {
		t.Fatalf("batch %d: topological order differs from the eager graph's", batch)
	}
}
