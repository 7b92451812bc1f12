package cuda

import (
	"fmt"
	"time"
)

// Stream is a CUDA stream: an in-order queue of device work. During
// capture, launches on any participating stream are recorded as graph
// nodes, with intra-stream order becoming dependency edges and events
// becoming cross-stream edges.
type Stream struct {
	p  *Process
	id int
}

// Synchronize waits for the stream's work (cudaStreamSynchronize).
// Like device synchronization, it is prohibited during capture — the
// paper's §2.3 lists both as the reason warm-up must precede capture.
//
//medusalint:allow testonly(cudaStreamSynchronize: capture must fail on it, and capturesync flags calls to it)
func (s *Stream) Synchronize() error {
	if s.p.capture != nil {
		err := &CaptureInvalidatedError{Op: "cudaStreamSynchronize"}
		s.p.capture.invalidated = err
		return err
	}
	return nil
}

// Event is a CUDA event used for cross-stream ordering. During capture,
// Record/Wait pairs become graph dependency edges.
type Event struct {
	recorded bool
	node     int // last node on the recording stream at record time; -1 if none
}

// NewEvent creates an event.
//
//medusalint:allow testonly(cudaEventCreate: events are the capture's cross-stream dependency edges)
func (p *Process) NewEvent() *Event { return &Event{node: -1} }

// captureState holds an in-progress stream capture. Nodes live in one
// backing array, and their parameters (images inline) and dependency
// lists in per-capture slabs, so recording a launch allocates nothing
// per node once the slabs are sized. Per-stream state is indexed by
// stream id, which Process.NewStream assigns densely and extends here
// for a stream made during the capture.
type captureState struct {
	origin      *Stream
	nodes       []Node
	params      slab[Param]
	deps        slab[int32]
	last        []int     // stream id -> last node id + 1; 0 when none
	pending     [][]int32 // stream id -> event deps for its next node
	invalidated error
}

// captureSize is what one capture handed out of each slab. The next
// capture on the process starts its slabs at these sizes: a model's
// per-batch graphs (and its per-batch first-layer triggers) share a
// topology, so after the first capture the slabs are exactly sized.
type captureSize struct {
	nodes, params, deps int
}

// minSlabChunk is the smallest chunk a slab starts when it runs out,
// in elements. Chunks then double, so a capture with no predecessor
// to size it makes O(log n) chunks and wastes at most half of the last.
const minSlabChunk = 64

// slab hands out sub-slices of a backing chunk, each cut with a full
// slice expression (len == cap) so appending to one reallocates it
// instead of overwriting its neighbour. When the chunk runs out the
// slab starts a new one; earlier sub-slices keep theirs.
type slab[T any] struct {
	buf  []T
	grow int // size of the next overflow chunk
	used int // elements handed out
}

// sized returns a slab whose first chunk holds n elements.
func sized[T any](n int) slab[T] {
	s := slab[T]{grow: minSlabChunk}
	if n > 0 {
		s.buf = make([]T, 0, n)
	}
	return s
}

// take returns the next n elements; nil when n is zero.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(n, s.grow))
		s.grow *= 2
	}
	start := len(s.buf)
	s.buf = s.buf[:start+n]
	s.used += n
	return s.buf[start : start+n : start+n]
}

// BeginCapture starts capturing on the stream
// (cudaStreamBeginCapture). Only one capture may be active per process.
func (s *Stream) BeginCapture() error {
	if s.p.capture != nil {
		return ErrCaptureActive
	}
	last := s.p.lastCapture
	s.p.capture = &captureState{
		origin:  s,
		nodes:   make([]Node, 0, last.nodes),
		params:  sized[Param](last.params),
		deps:    sized[int32](last.deps),
		last:    make([]int, len(s.p.streams)),
		pending: make([][]int32, len(s.p.streams)),
	}
	return nil
}

// EndCapture finishes the capture and returns the built graph
// (cudaStreamEndCapture). If a prohibited operation occurred during the
// capture, the capture's error is returned and the graph discarded.
func (s *Stream) EndCapture() (*Graph, error) {
	c := s.p.capture
	if c == nil || c.origin != s {
		return nil, ErrNoCapture
	}
	s.p.capture = nil
	if c.invalidated != nil {
		return nil, c.invalidated
	}
	s.p.lastCapture = captureSize{
		nodes: len(c.nodes), params: c.params.used, deps: c.deps.used,
	}
	nodes := make([]*Node, len(c.nodes))
	for i := range c.nodes {
		nodes[i] = &c.nodes[i]
	}
	g := &Graph{nodes: nodes}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cuda: capture produced invalid graph: %w", err)
	}
	return g, nil
}

// record appends a launch as a graph node, encoding its arguments once
// into the capture's param slab, and returns the node.
func (c *captureState) record(s *Stream, k *Kernel, args []Value) Node {
	last, pend := c.last[s.id], c.pending[s.id]
	nDeps := len(pend)
	if last > 0 {
		nDeps++
	}
	deps := c.deps.take(nDeps)
	if last > 0 {
		deps[0] = int32(last - 1)
	}
	copy(deps[nDeps-len(pend):], pend)
	c.pending[s.id] = pend[:0]

	params := c.params.take(len(args))
	for i, a := range args {
		params[i] = a.Param()
	}
	n := Node{
		ID:         len(c.nodes),
		KernelAddr: k.Addr(),
		Params:     params,
		Deps:       deps,
	}
	c.nodes = append(c.nodes, n)
	c.last[s.id] = n.ID + 1
	return n
}

// RecordEvent records the event on the stream. During capture it marks
// the stream's last node as the event's dependency source.
//
//medusalint:allow testonly(cudaEventRecord: marks a stream's last captured node as an edge source)
func (s *Stream) RecordEvent(e *Event) error {
	e.recorded = true
	if c := s.p.capture; c != nil {
		e.node = c.last[s.id] - 1
	}
	return nil
}

// WaitEvent makes subsequent work on the stream depend on the event.
//
//medusalint:allow testonly(cudaStreamWaitEvent: adds the recorded edge to the stream's next captured node)
func (s *Stream) WaitEvent(e *Event) error {
	if !e.recorded {
		return fmt.Errorf("cuda: wait on unrecorded event")
	}
	if c := s.p.capture; c != nil && e.node >= 0 {
		c.pending[s.id] = append(c.pending[s.id], int32(e.node))
	}
	return nil
}

// Node is one kernel node of a CUDA graph, carrying exactly the
// information of Figure 4(d): the kernel's address and the array of
// parameters, each a raw image and its size, plus the dependency edges
// (node IDs). Nothing identifies which parameters are pointers.
type Node struct {
	ID         int
	KernelAddr uint64
	Params     []Param
	Deps       []int32
}

// Graph is a CUDA graph: kernels plus execution dependencies.
type Graph struct {
	nodes []*Node
}

// NewGraph builds a graph from explicit nodes (the explicit-construction
// analogue of cudaGraphAddKernelNode).
//
//medusalint:allow testonly(cudaGraphAddKernelNode analogue; internal/medusa's eager-restore oracle builds graphs with it)
func NewGraph(nodes []*Node) *Graph { return &Graph{nodes: nodes} }

// Nodes returns the graph's nodes indexed by ID.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeCount reports the number of kernel nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Validate checks that node IDs are dense (node i has ID i), that no
// parameter image is wider than 8 bytes, that every dependency names a
// node of the graph, and that the dependencies are acyclic. A
// dependency may name a later node; only a cycle fails.
func (g *Graph) Validate() error {
	_, err := g.validate()
	return err
}

// validate is Validate, returning the topological order it computed
// so Instantiate does not compute it twice.
func (g *Graph) validate() ([]int, error) {
	for i, n := range g.nodes {
		if n.ID != i {
			return nil, fmt.Errorf("node %d has ID %d", i, n.ID)
		}
		for j, p := range n.Params {
			if p.Size > maxParamImage {
				return nil, fmt.Errorf("node %d param %d: %d-byte image exceeds limit %d", i, j, p.Size, maxParamImage)
			}
		}
		for _, d := range n.Deps {
			if d < 0 || int(d) >= len(g.nodes) {
				return nil, fmt.Errorf("node %d depends on invalid node %d", i, d)
			}
		}
	}
	return g.TopoOrder()
}

// TopoOrder returns a topological ordering of node IDs (dependencies
// first), or an error if a dependency names no node of the graph or
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	var ts TopoSorter
	return ts.Order(len(g.nodes), func(i int) []int32 { return g.nodes[i].Deps })
}

// TopoSorter orders graph nodes with Kahn's algorithm. It keeps its
// scratch for the next Order call, so one sorter orders many graphs
// with no allocation once it has grown to the largest.
type TopoSorter struct {
	scratch []int32
	order   []int
}

// Order returns a topological ordering of nodes 0..n-1, dependencies
// first, where deps(i) lists node i's dependencies. A FIFO over node
// IDs keeps the order deterministic and close to capture order. It
// fails on a dependency outside [0, n) and on a cycle. The returned
// order belongs to the sorter: the next call overwrites it.
func (t *TopoSorter) Order(n int, deps func(int) []int32) ([]int, error) {
	edges := 0
	for i := 0; i < n; i++ {
		ds := deps(i)
		for _, d := range ds {
			if d < 0 || int(d) >= n {
				return nil, fmt.Errorf("node %d depends on invalid node %d", i, d)
			}
		}
		edges += len(ds)
	}
	// One scratch slab holds the in-degrees, the successor lists in one
	// flat array (node d's successors, in node order, are
	// succ[start[d]:start[d+1]]) and their fill cursors.
	need := 3*n + 1 + edges
	if cap(t.scratch) < need {
		t.scratch = make([]int32, need)
	} else {
		t.scratch = t.scratch[:need]
		clear(t.scratch)
	}
	scratch := t.scratch
	indeg, start, fill, succ := scratch[:n], scratch[n:2*n+1], scratch[2*n+1:3*n+1], scratch[3*n+1:]
	for i := 0; i < n; i++ {
		for _, d := range deps(i) {
			start[d+1]++
			indeg[i]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	copy(fill, start[:n])
	for i := 0; i < n; i++ {
		for _, d := range deps(i) {
			succ[fill[d]] = int32(i)
			fill[d]++
		}
	}
	// The order is the FIFO: order[head:] is still queued.
	if cap(t.order) < n {
		t.order = make([]int, 0, n)
	}
	order := t.order[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, s := range succ[start[id]:start[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, int(s))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cuda: graph has a dependency cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// GraphExec is an instantiated, ready-to-launch graph. One made by
// InstantiateDeferred builds its graph and topological order on its
// first Launch or Graph call.
type GraphExec struct {
	g     *Graph
	p     *Process
	topo  []int
	build func() []*Node // set until a deferred graph is built
}

// Instantiate validates the graph against the process — every node's
// kernel address must resolve to a loaded kernel with a matching
// parameter layout — and prepares it for launch (cudaGraphInstantiate).
func (g *Graph) Instantiate(p *Process) (*GraphExec, error) {
	topo, err := g.validate()
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		if err := p.CheckNode(n.ID, n.KernelAddr, n.Params); err != nil {
			return nil, err
		}
	}
	p.clock.Advance(time.Duration(len(g.nodes)) * p.cfg.InstantiateNodeCost)
	return &GraphExec{g: g, p: p, topo: topo}, nil
}

// CheckNode checks one graph node against the process as Instantiate
// does for each: addr must be a loaded kernel, and params must match
// the kernel's parameter layout, one parameter per declared kind, each
// as wide as its kind. Only the params' sizes are read.
func (p *Process) CheckNode(id int, addr uint64, params []Param) error {
	k, ok := p.KernelByAddr(addr)
	if !ok {
		return &UnknownKernelError{Addr: addr}
	}
	if len(params) != len(k.impl.Params) {
		return &ParamMismatchError{Kernel: k.Name(),
			Detail: fmt.Sprintf("node %d has %d params, kernel wants %d", id, len(params), len(k.impl.Params))}
	}
	for i, kind := range k.impl.Params {
		if int(params[i].Size) != kind.Size() {
			return &ParamMismatchError{Kernel: k.Name(),
				Detail: fmt.Sprintf("node %d param %d is %d bytes, kernel wants %d", id, i, params[i].Size, kind.Size())}
		}
	}
	return nil
}

// InstantiateDeferred instantiates a graph of the given node count
// that its caller has checked but not yet built. The caller has run
// Instantiate's checks, in Instantiate's order — the dependencies
// through a TopoSorter, then every node through CheckNode — so nothing
// is left to fail. It charges Instantiate's cost now; build makes the
// nodes on the first Launch or Graph call, once, and must make the
// graph that was checked.
func InstantiateDeferred(p *Process, nodes int, build func() []*Node) *GraphExec {
	p.clock.Advance(time.Duration(nodes) * p.cfg.InstantiateNodeCost)
	return &GraphExec{p: p, build: build}
}

// Graph returns the underlying graph, building a deferred one first.
func (ge *GraphExec) Graph() *Graph {
	if ge.build != nil {
		g := &Graph{nodes: ge.build()}
		topo, err := g.TopoOrder()
		if err != nil {
			panic("cuda: deferred graph differs from the graph checked at instantiation: " + err.Error())
		}
		ge.g, ge.topo, ge.build = g, topo, nil
	}
	return ge.g
}

// Launch replays the graph (cudaGraphLaunch): one CPU submission, then
// every node executes in dependency order with the parameters recorded
// in the nodes — the self-replaying property of §2.2.
func (ge *GraphExec) Launch(s *Stream) error {
	p := ge.p
	if p.capture != nil {
		err := &CaptureInvalidatedError{Op: "cudaGraphLaunch"}
		p.capture.invalidated = err
		return err
	}
	nodes := ge.Graph().nodes
	p.clock.Advance(p.cfg.GraphLaunchOverhead)
	for _, id := range ge.topo {
		n := nodes[id]
		k, ok := p.KernelByAddr(n.KernelAddr)
		if !ok {
			return &UnknownKernelError{Addr: n.KernelAddr}
		}
		args, err := DecodeArgs(p.graphArgs[:0], k.impl.Params, n.Params)
		if err != nil {
			return &ParamMismatchError{Kernel: k.Name(), Detail: err.Error()}
		}
		p.graphArgs = args
		p.clock.Advance(p.kernelCost(k.impl, args))
		if p.dev.Functional() && k.impl.Func != nil {
			if err := k.impl.Func(p.dev, args); err != nil {
				return fmt.Errorf("graph node %d kernel %s: %w", id, k.Name(), err)
			}
		}
	}
	return nil
}
