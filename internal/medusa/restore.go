package medusa

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/cuda"
)

// perNodeFillCost is the CPU cost of filling one restored node's
// parameters and dependencies (pointer arithmetic plus table lookups),
// charged at cold start, where a real restore fills them. Graph
// instantiation (charged by the cuda layer) dominates restore time;
// this is the small remainder.
const perNodeFillCost = 2 * time.Microsecond

// TriggerFunc runs the online triggering-kernel step for one batch
// size: the engine warms up and captures the *first layer* of the model
// (§5.2), which forces the CUDA driver to load every module the batch's
// graph needs. The resulting throwaway graph is discarded; only the
// module-loading side effect matters.
type TriggerFunc func(batch int) error

// Restorer drives the online phase of Medusa inside a fresh cold-start
// process. Create it before the process makes its first allocation: it
// installs hooks that verify the engine's natural allocations against
// the materialized sequence and record each allocation's address for
// indirect index pointer resolution.
type Restorer struct {
	p    *cuda.Process
	art  *Artifact
	addr []uint64 // alloc index -> this process's address
	have []bool

	cursor    int // next expected event position in art.AllocSeq
	verifyErr error
}

// NewRestorer attaches a restorer to a fresh process. It takes over the
// process's hooks for the duration of the restore.
func NewRestorer(p *cuda.Process, art *Artifact) (*Restorer, error) {
	if p.AllocationCount() != 0 {
		return nil, fmt.Errorf("medusa: restorer must attach before the first allocation (process has %d)", p.AllocationCount())
	}
	r := &Restorer{
		p:    p,
		art:  art,
		addr: make([]uint64, art.AllocCount),
		have: make([]bool, art.AllocCount),
	}
	p.SetHooks(cuda.Hooks{OnAlloc: r.onAlloc})
	return r, nil
}

// onAlloc observes every allocation event of the online process —
// whether issued by the engine's natural control flow or by the
// restorer's own replay — and matches it against the materialized
// sequence. The deterministic control flow (§4) guarantees sizes and
// ordering agree; a mismatch means the artifact belongs to a different
// build and restoration must abort rather than corrupt memory.
func (r *Restorer) onAlloc(ev cuda.AllocEvent) {
	if r.verifyErr != nil || r.cursor >= len(r.art.AllocSeq) {
		return // restoration finished (or already failed); later events are serving activity
	}
	want := r.art.AllocSeq[r.cursor]
	switch {
	case ev.Free != want.Free:
		r.verifyErr = fmt.Errorf("medusa: event %d: control flow diverged (got free=%v, artifact has free=%v)",
			r.cursor, ev.Free, want.Free)
	case !ev.Free && ev.Size != want.Size:
		r.verifyErr = fmt.Errorf("medusa: event %d: allocation size %d, artifact has %d",
			r.cursor, ev.Size, want.Size)
	case ev.Free && ev.AllocIndex != want.AllocIndex:
		r.verifyErr = fmt.Errorf("medusa: event %d: free of allocation %d, artifact frees %d",
			r.cursor, ev.AllocIndex, want.AllocIndex)
	}
	if r.verifyErr != nil {
		return
	}
	if !ev.Free {
		r.addr[want.AllocIndex] = ev.Addr
		r.have[want.AllocIndex] = true
	}
	r.cursor++
}

// replayThrough issues Malloc/Free for artifact events [cursor, end):
// the §4.2 replay of stages the online control flow skips (profiling
// forwarding, capture-time temporaries and permanents).
func (r *Restorer) replayThrough(end int) error {
	if end > len(r.art.AllocSeq) {
		return fmt.Errorf("medusa: replay through %d exceeds %d events", end, len(r.art.AllocSeq))
	}
	for r.cursor < end {
		if r.verifyErr != nil {
			return r.verifyErr
		}
		ev := r.art.AllocSeq[r.cursor]
		if ev.Free {
			if !r.have[ev.AllocIndex] {
				return fmt.Errorf("medusa: replay frees allocation %d before it exists", ev.AllocIndex)
			}
			if err := r.p.Free(r.addr[ev.AllocIndex]); err != nil {
				return fmt.Errorf("medusa: replay free of allocation %d: %w", ev.AllocIndex, err)
			}
			continue // onAlloc advanced the cursor
		}
		if _, err := r.p.Malloc(ev.Size); err != nil {
			return fmt.Errorf("medusa: replay allocation %d (%d bytes): %w", ev.AllocIndex, ev.Size, err)
		}
	}
	return r.verifyErr
}

// ReplayPrefix replays the materialized sequence up to the capture
// stage boundary. The engine calls this once its own loading stages
// (model structure, weights, tokenizer) have run; the replayed span
// covers the skipped profiling forwarding and ends with the KV cache
// allocations, whose addresses become available through labels.
func (r *Restorer) ReplayPrefix() error {
	return r.replayThrough(r.art.PrefixLen)
}

// ReplayCaptureStage replays the capture-stage events (temporaries and
// permanent buffers) and rematerializes permanent buffer contents.
func (r *Restorer) ReplayCaptureStage() error {
	if err := r.replayThrough(len(r.art.AllocSeq)); err != nil {
		return err
	}
	for _, pr := range r.art.Permanent {
		if !r.have[pr.AllocIndex] {
			return fmt.Errorf("medusa: permanent allocation %d missing after replay", pr.AllocIndex)
		}
		if pr.Contents == nil {
			// Cost-only artifact: charge the (tiny) copy anyway.
			r.p.ChargeHtoD(pr.Size)
			continue
		}
		if err := r.p.MemcpyHtoD(r.addr[pr.AllocIndex], pr.Contents); err != nil {
			return fmt.Errorf("medusa: restore permanent allocation %d contents: %w", pr.AllocIndex, err)
		}
	}
	return nil
}

// AddrOfLabel returns this process's address of a labeled allocation
// (e.g. the KV cache buffers) after the relevant replay has run.
func (r *Restorer) AddrOfLabel(label string) (uint64, bool) {
	idx, ok := r.art.LabelIndex(label)
	if !ok || !r.have[idx] {
		return 0, false
	}
	return r.addr[idx], true
}

// KV returns the materialized KV cache initialization record.
func (r *Restorer) KV() KVRecord { return r.art.KV }

// RestoreGraphs restores every materialized graph into a ready-to-
// launch executable. For each batch size it first invokes the trigger
// (first-layer warm-up and capture) so the CUDA driver loads all
// modules the graph needs, then resolves kernel addresses — via
// dlsym/cudaGetFuncBySymbol for exported kernels, via module
// enumeration for hidden ones (§5) — checks every indirect index
// pointer against the replayed allocations, charges the parameter
// fill, and instantiates. Everything that can fail or advance the
// virtual clock happens here, graph by graph. Each graph's nodes and
// parameter images are built from the resolved addresses on its first
// Launch or Graph call, so a graph that is never launched costs no
// node memory, and the build cannot fail.
//
// The executables read the artifact when they build, so the artifact
// must not change while an instance restored from it is live.
// ValidateAndCorrect mutates one only between validation rounds, whose
// instances are discarded.
func (r *Restorer) RestoreGraphs(trigger TriggerFunc) (map[int]*cuda.GraphExec, error) {
	if r.cursor != len(r.art.AllocSeq) {
		return nil, fmt.Errorf("medusa: RestoreGraphs before replay finished (%d of %d events)",
			r.cursor, len(r.art.AllocSeq))
	}
	out := make(map[int]*cuda.GraphExec, len(r.art.Graphs))
	kernels := make([]uint64, r.art.TotalNodes()) // every node's kernel address, graph by graph
	var topo cuda.TopoSorter
	for gi := range r.art.Graphs {
		g := &r.art.Graphs[gi]
		if trigger != nil {
			if err := trigger(g.Batch); err != nil {
				return nil, fmt.Errorf("medusa: triggering-kernels for batch %d: %w", g.Batch, err)
			}
		}
		addrs := cut(&kernels, len(g.Nodes))
		if err := r.checkGraph(g, addrs, &topo); err != nil {
			return nil, err
		}
		out[g.Batch] = cuda.InstantiateDeferred(r.p, len(g.Nodes), func() []*cuda.Node {
			return r.buildNodes(g, addrs)
		})
	}
	return out, nil
}

// checkGraph runs every check that building and instantiating the
// graph would run, in this order and with their virtual-time charges:
// it resolves each node's kernel into addrs and checks its indirect
// index pointers, charges the parameter fill, then checks the
// dependencies and each node's parameter layout as
// cuda.Graph.Instantiate does.
func (r *Restorer) checkGraph(g *GraphRecord, addrs []uint64, topo *cuda.TopoSorter) error {
	for ni := range g.Nodes {
		nr := &g.Nodes[ni]
		addr, err := r.resolveKernel(nr.KernelName)
		if err != nil {
			return fmt.Errorf("medusa: graph %d node %d: %w", g.Batch, ni, err)
		}
		addrs[ni] = addr
		for pi, p := range nr.Params {
			if p.Pointer && !r.have[p.AllocIndex] {
				return fmt.Errorf("medusa: graph %d node %d: param %d: indirect index %d was never allocated",
					g.Batch, ni, pi, p.AllocIndex)
			}
		}
	}
	r.p.Clock().Advance(time.Duration(len(g.Nodes)) * perNodeFillCost)
	if _, err := topo.Order(len(g.Nodes), func(i int) []int32 { return g.Nodes[i].Deps }); err != nil {
		return fmt.Errorf("medusa: instantiate restored graph %d: %w", g.Batch, err)
	}
	// CheckNode reads only the params' sizes, so the images stay zero.
	params := make([]cuda.Param, 0, 16)
	for ni := range g.Nodes {
		params = params[:0]
		for _, p := range g.Nodes[ni].Params {
			params = append(params, cuda.Param{Size: paramSize(p)})
		}
		if err := r.p.CheckNode(ni, addrs[ni], params); err != nil {
			return fmt.Errorf("medusa: instantiate restored graph %d: %w", g.Batch, err)
		}
	}
	return nil
}

// paramSize is the size of a restored parameter's image.
func paramSize(p ParamRecord) uint8 {
	if p.Pointer {
		return 8
	}
	return p.Size
}

// buildNodes materializes one checked graph's nodes from its resolved
// kernel addresses. The nodes live in one backing array and their
// params (images inline) and dependency lists in per-graph slabs sized
// exactly from the graph record; neither slab holds a pointer. Each
// node's share of a slab is a full-slice-expression sub-slice, so
// appending to one can never overwrite its neighbour.
func (r *Restorer) buildNodes(g *GraphRecord, addrs []uint64) []*cuda.Node {
	var nDeps, nParams int
	for ni := range g.Nodes {
		nDeps += len(g.Nodes[ni].Deps)
		nParams += len(g.Nodes[ni].Params)
	}
	backing := make([]cuda.Node, len(g.Nodes))
	nodes := make([]*cuda.Node, len(g.Nodes))
	deps := make([]int32, nDeps)
	params := make([]cuda.Param, nParams)
	for ni := range g.Nodes {
		nr := &g.Nodes[ni]
		node := &backing[ni]
		node.ID = ni
		node.KernelAddr = addrs[ni]
		if len(nr.Deps) > 0 {
			node.Deps = cut(&deps, len(nr.Deps))
			copy(node.Deps, nr.Deps)
		}
		node.Params = cut(&params, len(nr.Params))
		for pi := range nr.Params {
			p, cp := &nr.Params[pi], &node.Params[pi]
			if p.Pointer {
				binary.LittleEndian.PutUint64(cp.Image[:], r.addr[p.AllocIndex]+p.Offset)
				cp.Size = 8
			} else {
				cp.Image, cp.Size = p.Image, p.Size
			}
		}
		nodes[ni] = node
	}
	return nodes
}

// resolveKernel finds the process-local address of a kernel by name.
func (r *Restorer) resolveKernel(name string) (uint64, error) {
	// Already loaded (a triggering-kernel or earlier resolution brought
	// its module in)?
	if k, ok := r.p.KernelByName(name); ok {
		return k.Addr(), nil
	}
	loc, ok := r.art.Kernels[name]
	if !ok {
		return 0, fmt.Errorf("kernel %q not in artifact kernel table", name)
	}
	if loc.Exported {
		// dlopen → dlsym → cudaGetFuncBySymbol (§5, the common path:
		// "Most of the kernels … can be restored in such a way").
		ll, err := r.p.Linker().Dlopen(loc.Library)
		if err != nil {
			return 0, err
		}
		h, err := r.p.Linker().Dlsym(ll, name)
		if err != nil {
			return 0, err
		}
		k, err := r.p.GetFuncBySymbol(h)
		if err != nil {
			return 0, err
		}
		return k.Addr(), nil
	}
	// Hidden kernel: search the modules the triggering-kernels loaded,
	// enumerating kernels and comparing names (cuModuleEnumerateFunctions
	// + cuFuncGetName).
	for _, m := range r.p.LoadedModules() {
		for _, k := range r.p.ModuleEnumerateFunctions(m) {
			if k.Name() == name {
				return k.Addr(), nil
			}
		}
	}
	return 0, fmt.Errorf("hidden kernel %q not found in any loaded module — triggering-kernels did not load it", name)
}
