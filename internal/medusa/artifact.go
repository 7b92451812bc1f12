package medusa

import (
	"fmt"
)

// KVRecord materializes the KV cache initialization (§6): the residual
// free GPU memory a profiling forwarding found, and the block geometry
// derived from it. Online, the engine allocates the cache directly from
// these numbers instead of re-profiling.
type KVRecord struct {
	// FreeMemBytes is the profiled residual free device memory.
	FreeMemBytes uint64
	// NumBlocks is the KV block count the free memory supports.
	NumBlocks int
	// BlockBytes is the per-block device size.
	BlockBytes uint64
}

// AllocRecord is one entry of the materialized buffer (de)allocation
// sequence. Addresses are deliberately absent: only sizes, ordering and
// the allocation index survive, because addresses are not stable across
// cold starts.
type AllocRecord struct {
	// Free marks a deallocation of the AllocIndex-th allocation.
	Free bool
	// AllocIndex is the ordinal of the allocation (counting allocations
	// only).
	AllocIndex int
	// Size is the allocation size (zero for frees).
	Size uint64
	// Label optionally names the allocation's role for the engine.
	Label string
}

// ParamRecord is one kernel parameter of a materialized graph node.
// The image is held inline: kernel parameters are scalars or device
// pointers of at most 8 bytes, so a fixed array beside the image's
// width costs less than a slice header pointing into a slab, and the
// record is 24 bytes with no pointer for the GC to trace.
type ParamRecord struct {
	// Image holds the parameter image as captured in its first Size
	// bytes; the rest stay zero. Constants restore from it directly;
	// for pointers it is retained so a validation correction can demote
	// the parameter back to a constant (§4).
	Image [maxParamImage]byte
	// Offset is the pointer's offset within the AllocIndex-th
	// allocation — pointers may reference buffer interiors.
	Offset uint64
	// AllocIndex is the indirect index pointer: which allocation of the
	// sequence the pointer referenced (§4.1). It has the wire's 32-bit
	// width: a wire value of 2^31 or more decodes negative, which
	// validation rejects for a pointer.
	AllocIndex int32
	// Size is the image's width in bytes (4 or 8 in a valid artifact).
	Size uint8
	// Pointer marks a data pointer to be restored through the indirect
	// index pointer table.
	Pointer bool
}

// NodeRecord is one materialized CUDA graph node.
type NodeRecord struct {
	// KernelName is the kernel's mangled name — the stable identity
	// addresses are recovered from (§5).
	KernelName string
	// Params are the node's parameters in order.
	Params []ParamRecord
	// Deps are dependency node IDs, at the wire's 32-bit width: a wire
	// value of 2^31 or more decodes negative, which validation rejects.
	Deps []int32
}

// GraphRecord is one materialized CUDA graph.
type GraphRecord struct {
	// Batch is the batch size the graph serves.
	Batch int
	// Nodes are the graph's nodes; index is node ID.
	Nodes []NodeRecord
}

// KernelLoc locates a kernel for online address restoration.
type KernelLoc struct {
	// Library is the shared object carrying the kernel.
	Library string
	// Exported reports whether dlsym can resolve it. Hidden kernels
	// need the triggering-kernel + module enumeration path.
	Exported bool
}

// PermRecord is one permanent buffer (§4.3): allocated during the
// capture stage and still live at its end, so its contents must be
// rematerialized online.
type PermRecord struct {
	// AllocIndex identifies the allocation.
	AllocIndex int
	// Size is the content size.
	Size uint64
	// Contents holds the saved bytes; nil when the offline run was
	// cost-only (no data plane).
	Contents []byte
}

// Artifact is everything Medusa materializes for one <GPU type, model>
// combination. It is built once offline and restored on every cold
// start.
type Artifact struct {
	// ModelName identifies the model.
	ModelName string
	// AllocSeq is the buffer (de)allocation sequence of the offline
	// cold start, replayed online (§4.2).
	AllocSeq []AllocRecord
	// AllocCount is the number of allocations in AllocSeq.
	AllocCount int
	// PrefixLen is the event position where the capture stage begins.
	// Events before it are reproduced by the engine's natural control
	// flow (and by explicit replay for skipped stages); events after it
	// exist only because of capture and are always replayed by Medusa.
	PrefixLen int
	// Graphs are the materialized CUDA graphs, one per batch size.
	Graphs []GraphRecord
	// Kernels maps kernel names to their restoration route.
	Kernels map[string]KernelLoc
	// Permanent lists buffers whose contents must be restored.
	Permanent []PermRecord
	// KV is the materialized KV cache initialization.
	KV KVRecord
}

// CurrentFormatVersion is the self-contained artifact wire version
// Encode writes: six body sections and a per-section checksum trailer
// that lets the decoder name the first damaged section of a corrupt
// artifact (see wire.go). DecodeResolved also reads the v3
// template+delta container. docs/ARTIFACT_FORMAT.md is the normative
// spec.
const CurrentFormatVersion = 2

// DeltaFormatVersion is the v3 template+delta container version
// written by EncodeDelta: section payloads are delta-encoded against a
// shared per-architecture Template referenced by ID and body CRC.
const DeltaFormatVersion = 3

// Batches returns the materialized batch sizes in artifact order.
func (a *Artifact) Batches() []int {
	out := make([]int, len(a.Graphs))
	for i, g := range a.Graphs {
		out[i] = g.Batch
	}
	return out
}

// TotalNodes sums nodes across all graphs.
func (a *Artifact) TotalNodes() int {
	n := 0
	for _, g := range a.Graphs {
		n += len(g.Nodes)
	}
	return n
}

// LabelIndex returns the alloc index carrying the given label.
func (a *Artifact) LabelIndex(label string) (int, bool) {
	for _, ev := range a.AllocSeq {
		if !ev.Free && ev.Label == label {
			return ev.AllocIndex, true
		}
	}
	return 0, false
}

// PointerStats counts parameters by class — the materialization
// inventory reported by inspection tooling.
type PointerStats struct {
	// Constants counts parameters classified as embedded scalar values.
	Constants int
	// Pointers counts parameters classified as device addresses.
	Pointers int
}

// Stats tallies parameter classes over all graphs.
func (a *Artifact) Stats() PointerStats {
	var s PointerStats
	for _, g := range a.Graphs {
		for _, n := range g.Nodes {
			for _, p := range n.Params {
				if p.Pointer {
					s.Pointers++
				} else {
					s.Constants++
				}
			}
		}
	}
	return s
}

// validate checks internal consistency after decode or analysis.
func (a *Artifact) validate() error {
	if a.PrefixLen < 0 || a.PrefixLen > len(a.AllocSeq) {
		return fmt.Errorf("medusa: artifact prefix %d out of range (%d events)", a.PrefixLen, len(a.AllocSeq))
	}
	allocs := 0
	for i, ev := range a.AllocSeq {
		if ev.Free {
			if ev.AllocIndex < 0 || ev.AllocIndex >= a.AllocCount {
				return fmt.Errorf("medusa: event %d frees invalid allocation %d", i, ev.AllocIndex)
			}
		} else {
			if ev.AllocIndex != allocs {
				return fmt.Errorf("medusa: event %d has allocation index %d, want %d", i, ev.AllocIndex, allocs)
			}
			allocs++
		}
	}
	if allocs != a.AllocCount {
		return fmt.Errorf("medusa: %d allocations in sequence, header says %d", allocs, a.AllocCount)
	}
	var prev []NodeRecord // the previous graph's nodes, every kernel checked
	for _, g := range a.Graphs {
		for ni := range g.Nodes {
			n := &g.Nodes[ni]
			// Per-batch graphs mostly share a topology, so kernel names.
			if ni >= len(prev) || n.KernelName != prev[ni].KernelName {
				if _, ok := a.Kernels[n.KernelName]; !ok {
					return fmt.Errorf("medusa: graph %d node %d references unknown kernel %q", g.Batch, ni, n.KernelName)
				}
			}
			for pi, p := range n.Params {
				if p.Pointer && (p.AllocIndex < 0 || int(p.AllocIndex) >= a.AllocCount) {
					return fmt.Errorf("medusa: graph %d node %d param %d indexes allocation %d of %d",
						g.Batch, ni, pi, p.AllocIndex, a.AllocCount)
				}
				if p.Size != 4 && p.Size != 8 {
					return fmt.Errorf("medusa: graph %d node %d param %d has %d-byte image", g.Batch, ni, pi, p.Size)
				}
			}
			for _, d := range n.Deps {
				if d < 0 || int(d) >= len(g.Nodes) {
					return fmt.Errorf("medusa: graph %d node %d has dangling dep %d", g.Batch, ni, d)
				}
			}
		}
		prev = g.Nodes
	}
	for _, pr := range a.Permanent {
		if pr.AllocIndex < 0 || pr.AllocIndex >= a.AllocCount {
			return fmt.Errorf("medusa: permanent record indexes allocation %d of %d", pr.AllocIndex, a.AllocCount)
		}
		if pr.Contents != nil && uint64(len(pr.Contents)) != pr.Size {
			return fmt.Errorf("medusa: permanent record size %d has %d content bytes", pr.Size, len(pr.Contents))
		}
	}
	return nil
}
