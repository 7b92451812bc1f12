package serverless

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/eventq"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/workload"
)

// The simulator core is one event loop for every scale: deployments
// share a fleet of identical nodes, each deployment with its own queue,
// autoscaling target and loading strategy. RunFleet runs it as a
// multi-node fleet whose nodes front a shared artifact registry with
// tiered caches; RunMulti runs it as a single node without an artifact
// cache (one GPU pool, §7.5). Both enter through simulate.
//
// The loop is built to scale to 10M+ requests per run:
//
//   - Events live in an eventq.Queue (monomorphized 4-ary heap, no
//     interface boxing) with the (time, push instant, push-sequence)
//     tie-break.
//   - Arrivals are generated on a second goroutine that reads the
//     ArrivalSource into a fixed ring of blocks (readAhead), at most
//     readAheadBlocks·readAheadBlock arrivals ahead of the loop, so
//     neither the trace nor its events are ever materialized in full.
//     The loop pulls one arrival at a time from the ring; the pulled,
//     unfired arrival waits beside the queue under the push instant and
//     sequence number a push would have given it (eventq.Queue.Stamp),
//     so it costs no heap push or pop and still pops in heap order.
//   - Request and instance state recycle through free-lists, and the
//     queues, scratch buffers and registry instruments are reused, so
//     steady-state allocation is O(active requests), not O(total).
//   - GPU accounting, dispatch and outstanding counts are maintained
//     incrementally via per-deployment live-instance lists and
//     counters. Dispatch walks a deployment's instances only while one
//     of them is idle (depState.idle) and a request is queued.
//   - The autoscaler is asked for a deployment's desired count only
//     when its outstanding or live count changed or the policy's
//     stated horizon passed (see tick).
//   - Every instance plans its rounds through its internal/sched
//     scheduler, under the deployment's policy: whole-request admission
//     (Scheduler.Batch.BatchTokens 0) or continuous batching. A run of
//     decode steps that admit nothing is one event when the scheduler
//     says so (DecodeRun): the queue is empty, or the running set is
//     full; the steps are identical, and no skipped boundary changes
//     anything but token counts. A run ends at its first completion,
//     before a batched step that needs a new KV block, and at the first
//     boundary at or after the earliest policy horizon of any
//     deployment. A request queued mid-run cuts a run with room back to
//     the boundary where per-step code would plan with it in view
//     (splitRuns). A run's end is pushed
//     at the start of its last step, as per-step code pushes it, and an
//     iteration end pops ahead of other events due and pushed at the
//     same instant, two ends in per-step order (pushOrder), so exact
//     ties pop as they do per step.
//   - Each instance has at most one event of each kind (ready,
//     iteration end, idle check) queued, bound to an eventq.Handle in
//     its state: rescheduling moves the queued event in place and
//     retiring the instance cancels it, so every popped event is live.
//
// Every launch first picks a node (locality vs load), then charges
// runtime init and the artifact read. A node with a cache overlaps its
// cache fetch with runtime init (the node daemon pulls the artifact
// while the container boots); on a node without one the read from
// storage stays inside the restore stage.

type eventKind uint8

const (
	evArrival eventKind = iota
	evInstanceReady
	evIterationEnd
	evIdleCheck
	evNodeCrash
)

// event is one scheduled occurrence. Instance events are bound to
// their instance's handles (see schedule), so an instance that is
// retired, crashed or recycled has none left queued. A node-crash
// event carries its node.
type event struct {
	kind eventKind
	node int32
	req  *reqState
	inst *instState
}

// runtimeInitDuration mirrors the engine's runtime-initialization
// phase, paid by launches that miss the node's warm container pool.
const runtimeInitDuration = 830 * time.Millisecond

// reqState tracks one request through the fleet.
type reqState struct {
	workload.Request
	dep      int // owning deployment
	ttftSeen bool
	// sloViolated latches the first missed deadline; checked once at
	// completion so each request counts toward attainment exactly once.
	sloViolated bool
	// firstTok is when the first token was emitted (the TPOT
	// denominator interval starts here).
	firstTok time.Duration
	// turn is the request's position in its conversation (1-based).
	turn int
	// seq is the request's handle in its instance's scheduler, which
	// owns it from admission to completion; its KV block table keeps its
	// storage as the request state recycles.
	seq sched.Seq[*reqState]
}

// instState is one provisioned instance, pinned to a node.
type instState struct {
	id    int
	dep   int
	node  int
	ready bool
	// iterating reports whether an iteration-end event is in flight.
	iterating bool
	// The in-flight iteration-end event closes a run of runLen steps
	// begun at runStart: the first lasts runFirst (graph capture and
	// prefill, if any, plus one decode step), every later one runStep.
	// runLen > 1 only for a coalesced decode run (see startIteration).
	runStart, runFirst, runStep time.Duration
	runLen                      int
	// runOrigin is the push instant of the event whose handling started
	// the run (see pushedBack).
	runOrigin time.Duration
	// readyEv, endEv and checkEv hold the instance's queued ready,
	// iteration-end and idle-check events.
	readyEv, endEv, checkEv eventq.Handle
	idleSince               time.Duration
	launchedAt              time.Duration
	// captured tracks graph sizes this instance has lazily captured
	// (deferred-capture strategy only).
	captured map[int]bool
	// degraded records the fault reason when the launch fell back to the
	// vanilla cold-start profile ("" for a clean launch).
	degraded string
	// sch is the instance's iteration-level scheduler. It recycles with
	// the instance state through the free-list.
	sch sched.Scheduler[*reqState]
}

// boundary returns the end of the run's j-th step (j = 0 is the run's
// start).
func (inst *instState) boundary(j int) time.Duration {
	if j == 0 {
		return inst.runStart
	}
	return inst.runStart + inst.runFirst + time.Duration(j-1)*inst.runStep
}

// nextBoundary returns the first step of the run whose end an event at
// now, pushed at pushedAt, precedes. Per-step code pushes a step's end
// when the step starts, at the previous boundary; an event due exactly
// on a boundary therefore goes first only if it was pushed strictly
// before that previous boundary. That is the queue's own order against
// the end as schedule pushes it: by push instant, and an iteration end
// ahead of any other event pushed at the same instant (pushOrder).
func (inst *instState) nextBoundary(now, pushedAt time.Duration) int {
	first := inst.runStart + inst.runFirst
	if now < first {
		return 1
	}
	// boundary(j) <= now < boundary(j+1).
	j := int((now-first)/inst.runStep) + 1
	if inst.boundary(j) == now && pushedAt < inst.boundary(j-1) {
		return j
	}
	return j + 1
}

// stepsBegun counts the run's steps started before now. A step starting
// exactly at now has not begun for a node crash at now: crash events are
// queued before the loop starts, so they win every tie.
func (inst *instState) stepsBegun(now time.Duration) int {
	n := 1
	for n < inst.runLen && inst.boundary(n) < now {
		n++
	}
	return n
}

// pushOrder is the event queue's tie rule (eventq.Queue.Tie) for two
// events due at the same instant and pushed at the same instant. An
// iteration end goes first, so a coalesced run's end, which per step
// would be pushed while a skipped step end pops, whose place among the
// other pops at that instant is not kept, orders as a one-step
// iteration's end does. Two ends go in the order per-step code pops
// them (compareRuns), any other two in sequence order. Against plain
// push order, this changes one case: an event pushed at the same
// instant before an iteration end, and due with it, now follows it.
func pushOrder(a, b event) int {
	switch x, y := a.kind == evIterationEnd, b.kind == evIterationEnd; {
	case x && y:
		return compareRuns(a.inst, b.inst)
	case x:
		return -1
	case y:
		return 1
	}
	return 0
}

// compareRuns orders the ends of two runs whose last steps start at the
// same instant. Per step, each step's end is pushed while the previous
// step's end pops, and the first step's while the event that started
// the run pops, so two ends pop in the order of the instants those were
// pushed at, back to where they differ (pushedBack). A history that
// runs out first sorts last: its run was started by an event that pops
// after the other run's step end, as pushOrder rules, unless it was an
// iteration end too, whose own history is not kept. Equal histories
// leave it to the sequence numbers of the runs' first pushes. An end's history changes
// only when its run starts or is cut, and the end is pushed or moved
// right after, as eventq.Queue.Tie requires.
func compareRuns(a, b *instState) int {
	for k := 1; ; k++ {
		if a.runStep == b.runStep {
			// Up to n back, both runs push whole steps back from the
			// same instant.
			if n := min(a.runLen, b.runLen) - 1; k < n {
				k = n
			}
		}
		p, okA := a.pushedBack(k)
		q, okB := b.pushedBack(k)
		switch {
		case okA != okB:
			if okA {
				return -1
			}
			return 1
		case !okA:
			return 0
		case p != q:
			return cmp.Compare(p, q)
		}
	}
}

// pushedBack returns the instant per-step code pushes the run's end
// from k ≥ 1 pushes back: the start of the step k before the last, and
// for k = runLen the run's origin. It reports false beyond that.
func (inst *instState) pushedBack(k int) (time.Duration, bool) {
	switch {
	case k < inst.runLen:
		return inst.boundary(inst.runLen - 1 - k), true
	case k == inst.runLen:
		return inst.runOrigin, true
	}
	return 0, false
}

// idleNow reports whether the instance currently holds no work.
func (inst *instState) idleNow() bool { return !inst.iterating && inst.sch.Idle() }

// nodeState is one fleet node: a GPU budget, a warm-container pool and,
// on a multi-node fleet, the tiered artifact cache.
type nodeState struct {
	id       int
	gpusUsed int
	warmLeft int // -1 = unbounded
	launches int
	crashed  bool
	// cache is nil on a node without an artifact cache.
	cache *artifactcache.NodeCache
	// Node-seconds accounting: a node costs while it hosts at least one
	// instance. liveInsts transitions 0→1 open an up-interval; 1→0
	// close it into upTime.
	liveInsts int
	upSince   time.Duration
	upTime    time.Duration
}

// depState is one deployment's queue, profile and metrics. All
// counting goes through the obs registry, which is returned in the
// result; hot-path instruments are resolved once and cached so the loop
// never takes the registry's name-lookup mutex per event.
type depState struct {
	cfg  Config
	prof *profile
	name string
	// key is the deployment's artifact key ("" when the strategy reads
	// no artifact, or reads it from storage with no fault plan): the
	// node caches' key on a fleet with caches, otherwise the namespace
	// of the launch's fault draws.
	key string
	// tmplKey is the shared template's cache key when the deployment's
	// artifact is template-factored ("" otherwise). Launches then fetch
	// the (template, delta) pair; the template entry is shared across
	// every sibling deployment of the architecture.
	tmplKey string
	// fallback is the vanilla cold-start profile degraded launches use
	// (nil when no injector is attached or the strategy has no artifact).
	fallback *profile
	// artRead is the virtual cost of one (possibly failed) artifact read
	// from storage on a node without a cache.
	artRead time.Duration

	// provLatency is the launch lead time the predictive autoscaler
	// scales ahead by (the profile's measured cold start).
	provLatency time.Duration

	pending eventq.Deque[*reqState]
	// active lists live instances in launch order — the dispatch and
	// accounting walk.
	active []*instState
	// idle counts the active instances that are ready and not iterating,
	// the ones dispatch can start; it changes only in setIterating and
	// at ready and retire.
	idle int
	// outstanding counts the deployment's unfinished requests
	// (pending + running), maintained incrementally.
	outstanding int
	// desired is the autoscaler's last answer, computed from askedOut
	// outstanding requests and askedLive live instances (askedOut is -1
	// before the first answer). tick reuses it while both counts are
	// unchanged and the virtual clock is before validUntil, the
	// policy's horizon for it (math.MaxInt64: until the counts change).
	desired, askedOut, askedLive int
	validUntil                   time.Duration

	reg      *obs.Registry
	phases   *obs.PhaseBreakdown
	csTotal  time.Duration
	live     int
	firstArr time.Duration
	seenArr  bool
	lastDone time.Duration
	rng      *rand.Rand
	// iterations counts settled steps; the iterations counter takes it
	// when the run ends, keeping an atomic add off every round.
	iterations int64

	// Cached registry instruments (hot path).
	cCompleted  *obs.Counter
	cColdStarts *obs.Counter
	cIterations *obs.Counter
	cFollowUps  *obs.Counter
	cPreempt    *obs.Counter
	sTTFT       *metrics.Sample
	sE2E        *metrics.Sample
	sTPOT       *metrics.Sample
	gLive       *obs.Gauge
	// sColdStart samples launch latency; bound only on a fleet with
	// caches (nil otherwise, and the registry keeps the single-pool
	// instrument set).
	sColdStart *metrics.Sample
	// cSLOMet counts deadline-meeting completions; bound only when an
	// SLO is set (nil otherwise, for the same reason).
	cSLOMet *obs.Counter
}

// bindInstruments resolves the hot-path instruments once. The batched
// policy's instruments (tpot, preemptions) register only under it, so a
// whole-request registry renders exactly the historical instrument set:
// one of the two places the policies differ outside internal/sched.
func (d *depState) bindInstruments() {
	d.cCompleted = d.reg.Counter("completed")
	d.cColdStarts = d.reg.Counter("cold_starts")
	d.cIterations = d.reg.Counter("iterations")
	d.cFollowUps = d.reg.Counter("follow_ups")
	d.sTTFT = d.reg.Sample("ttft")
	d.sE2E = d.reg.Sample("e2e")
	d.gLive = d.reg.Gauge("live_instances")
	if d.cfg.Scheduler.Batch.BatchTokens > 0 {
		d.cPreempt = d.reg.Counter("preemptions")
		d.sTPOT = d.reg.Sample("tpot")
	}
}

// liveChanged records the live-instance level in the gauge (its Max is
// the Result's PeakInstances).
func (d *depState) liveChanged() {
	d.gLive.Update(float64(d.live))
}

// removeActive deletes inst from the live list, preserving launch
// order (dispatch order is part of the deterministic contract).
func (d *depState) removeActive(inst *instState) {
	for i, a := range d.active {
		if a == inst {
			d.active = append(d.active[:i], d.active[i+1:]...)
			return
		}
	}
}

// runOptions switch the loop into the reference forms tests check it
// against. The zero value is the loop every exported entry point runs.
type runOptions struct {
	// referenceLoop restores the loop's reference form: the sourced
	// arrival is pushed into the event queue and dispatch walks every
	// active instance, checking each deployment's idle count against a
	// recount.
	referenceLoop bool
	// forcePerStep makes every iteration, under either policy, its own
	// event, to check coalesced runs against per-step execution.
	forcePerStep bool
}

// simulation is the discrete-event state.
type simulation struct {
	cfg  Fleet
	opts runOptions
	reg  *obs.Registry // fleet-wide (cache, crash and requeue counters)
	inj  *faults.Injector
	// registry is the shared artifact registry the node caches front
	// (nil when the nodes have no cache).
	registry *artifactcache.Registry

	nodes []*nodeState

	// The control plane: scaler decides instance counts at control ticks
	// (never nil — simulate defaults it to the reactive baseline), router
	// orders dispatch (nil = launch-order walk).
	scaler autoscale.Policy
	router router.Policy
	// horizon is the scaler's optional validity extension (nil when the
	// scaler does not state one: it is asked at every tick).
	horizon autoscale.Horizon
	// validUntil is the earliest depState.validUntil, as of the last
	// tick: no tick before it asks the policy anything unless a count
	// changes, so coalesced runs are capped there (see runSteps).
	validUntil time.Duration

	deps []*depState

	// src reads arrivals ahead of the loop; head is the one
	// pulled-but-unfired arrival. While headHeld, its event waits
	// outside the queue, pushed at headAt under the sequence number
	// headSeq (see pullArrival).
	src      *readAhead
	head     *reqState
	headAt   time.Duration
	headSeq  uint64
	headHeld bool
	// renumber assigns request IDs in delivery order (streaming mode);
	// the slice-based path pre-assigns concatenation-order IDs instead.
	renumber bool
	lastArr  time.Duration

	now time.Duration
	// popAt is the push instant of the event being handled.
	popAt  time.Duration
	events eventq.Queue[event]

	// Free-lists for recycled state objects.
	reqPool  []*reqState
	instPool []*instState
	instSeq  int // next instance id
	nextID   int // next request id (follow-ups, streaming arrivals)

	// Scratch buffers reused across calls on the hot path.
	scratchIntervals []obs.Interval
	scratchCrash     []*instState
	scratchChunkDur  []time.Duration
	// round is the iteration every instance plans into.
	round        sched.Iteration[*reqState]
	scratchCands []router.Candidate
	scratchRoute []*instState
	ranker       router.Ranker

	created    int
	completed  int
	lastDone   time.Duration
	gpuSeconds float64

	work Work
}

// schedule queues ev at t, pushed now. An instance event replaces the
// instance's queued event of its kind, if any. An iteration end is
// pushed at the start of its run's last step instead, where per-step
// code pushes it: among the events due with it, it then pops behind
// those pushed before that step began and ahead of those pushed after,
// as it does per step. Every other event is pushed at the loop's own
// nondecreasing clock, so its push instant orders it exactly as its
// sequence number does.
func (s *simulation) schedule(t time.Duration, ev event) {
	var h *eventq.Handle
	at := s.now
	switch ev.kind {
	case evInstanceReady:
		h = &ev.inst.readyEv
	case evIterationEnd:
		h = &ev.inst.endEv
		at = ev.inst.boundary(ev.inst.runLen - 1)
	case evIdleCheck:
		h = &ev.inst.checkEv
	}
	s.events.Schedule(h, t, at, ev)
}

// newReq returns a zeroed request state from the free-list.
func (s *simulation) newReq() *reqState {
	if n := len(s.reqPool); n > 0 {
		r := s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
		return r
	}
	r := &reqState{}
	r.seq.Data = r
	return r
}

// freeReq recycles a completed request's state, keeping the storage of
// its sequence handle's KV table, which the scheduler has released.
func (s *simulation) freeReq(r *reqState) {
	kv := r.seq.Seq
	*r = reqState{}
	r.seq.Data, r.seq.Seq = r, kv
	s.reqPool = append(s.reqPool, r)
}

// newInst returns a fresh instance state, recycling a retired one if
// available.
func (s *simulation) newInst(dep, node int) *instState {
	var inst *instState
	if n := len(s.instPool); n > 0 {
		inst = s.instPool[n-1]
		s.instPool = s.instPool[:n-1]
	} else {
		inst = &instState{}
	}
	inst.id = s.instSeq
	s.instSeq++
	inst.dep = dep
	inst.node = node
	d := s.deps[dep]
	inst.sch.Reset(d.cfg.Scheduler.Batch, d.cfg.Scheduler.MaxBatch)
	return inst
}

// freeInst recycles an instance state, cancelling its queued events
// (an idle check; after a crash, the in-flight ready or iteration-end
// event).
func (s *simulation) freeInst(inst *instState) {
	s.events.Cancel(&inst.readyEv)
	s.events.Cancel(&inst.endEv)
	s.events.Cancel(&inst.checkEv)
	// The scheduler recycles with the instance (newInst resets it).
	*inst = instState{sch: inst.sch}
	s.instPool = append(s.instPool, inst)
}

// pullArrival takes the next arrival from the read-ahead ring and
// holds it beside the event queue under the sequence number a push
// would give it, so the loop pops it in exactly the pushed order
// without a heap push and pop. Exactly one pulled arrival is
// undelivered at a time; the ring holds the ones read ahead of it.
func (s *simulation) pullArrival() error {
	di, req, ok := s.src.Next()
	if !ok {
		s.head, s.headHeld = nil, false
		return s.src.Err()
	}
	if di < 0 || di >= len(s.deps) {
		return fmt.Errorf("serverless: arrival for unknown deployment %d", di)
	}
	if req.Arrival < s.lastArr {
		return fmt.Errorf("serverless: arrival stream went backwards (%v after %v)", req.Arrival, s.lastArr)
	}
	s.lastArr = req.Arrival
	r := s.newReq()
	r.Request = req
	r.dep = di
	r.turn = 1
	if s.renumber {
		r.ID = s.nextID
		s.nextID++
	}
	s.created++
	s.head = r
	if s.opts.referenceLoop {
		s.schedule(req.Arrival, event{kind: evArrival, req: r})
		return nil
	}
	s.headAt, s.headSeq, s.headHeld = s.now, s.events.Stamp(), true
	return nil
}

func (s *simulation) run() (*FleetResult, error) {
	for di, d := range s.deps {
		// Pre-warmed instances occupy GPUs from time zero, placed like
		// any launch but charged no cold start.
		for i := 0; i < d.cfg.Scheduler.Prewarm; i++ {
			node := s.placeNode(d)
			if node == nil {
				break
			}
			inst := s.newInst(di, node.id)
			inst.ready = true
			node.gpusUsed += d.cfg.TPDegree
			node.launches++
			s.nodeUp(node)
			d.active = append(d.active, inst)
			d.live++
			d.idle++
		}
		d.liveChanged()
	}
	if err := s.pullArrival(); err != nil {
		return nil, err
	}
	// Node crashes need a fleet with caches; the single pool ignores the
	// plan's NodeCrashes entries.
	if s.inj != nil && s.registry != nil {
		for _, nc := range s.inj.CrashSchedule() {
			s.schedule(nc.At.D(), event{kind: evNodeCrash, node: int32(nc.Node)})
		}
	}

	for s.headHeld || s.events.Len() > 0 {
		// Events are pushed only between pops, so the queue peaks just
		// before one. The held arrival counts as queued.
		n := s.events.Len()
		if s.headHeld {
			n++
		}
		if n > s.work.HeapMax {
			s.work.HeapMax = n
		}
		var t time.Duration
		var ev event
		held := event{kind: evArrival, req: s.head}
		if s.headHeld && s.events.Precedes(s.head.Arrival, s.headAt, s.headSeq, held) {
			t, s.popAt, ev = s.head.Arrival, s.headAt, held
			s.headHeld = false
		} else {
			t, s.popAt, ev = s.events.Pop()
		}
		if s.opts.referenceLoop && ev.inst != nil {
			if err := s.checkLive(t, ev); err != nil {
				return nil, err
			}
		}
		s.now = t
		switch ev.kind {
		case evArrival:
			s.work.Arrivals++
			r := ev.req
			d := s.deps[r.dep]
			if !d.seenArr {
				d.seenArr = true
				d.firstArr = r.Arrival
			}
			d.pending.PushBack(r)
			d.outstanding++
			s.scaler.ObserveArrival(r.dep, r.Arrival)
			if r == s.head {
				if err := s.pullArrival(); err != nil {
					return nil, err
				}
			}
			if err := s.tick(); err != nil {
				return nil, err
			}
			if err := s.dispatchIdle(); err != nil {
				return nil, err
			}
			s.splitRuns(d, s.popAt)
		case evInstanceReady:
			s.work.Readies++
			inst := ev.inst
			inst.ready = true
			s.deps[inst.dep].idle++
			s.markIdle(inst)
			if err := s.dispatchIdle(); err != nil {
				return nil, err
			}
		case evIterationEnd:
			s.work.IterationEnds++
			if err := s.finishIteration(ev.inst); err != nil {
				return nil, err
			}
		case evNodeCrash:
			s.work.Crashes++
			if err := s.crashNode(int(ev.node)); err != nil {
				return nil, err
			}
		case evIdleCheck:
			s.work.IdleChecks++
			inst := ev.inst
			d := s.deps[inst.dep]
			if !inst.idleNow() {
				// Busy: the next markIdle arms a fresh check.
				break
			}
			if due := inst.idleSince + d.cfg.Scheduler.IdleTimeout; s.now < due {
				// Armed by an earlier idle spell; the instance has been
				// busy since and idle again from idleSince.
				s.armIdleCheck(inst, due)
				break
			}
			if s.retainVeto(inst) {
				// The autoscaling policy is holding this capacity warm
				// for forecast traffic: re-arm the idle check instead
				// of retiring. The veto lapses as the forecast decays,
				// and a policy without the Retainer extension (the
				// reactive baseline) never vetoes. Re-checks run at
				// half the timeout so a vetoed instance retires
				// promptly once its node's anchor work drains.
				s.armIdleCheck(inst, s.now+(d.cfg.Scheduler.IdleTimeout+1)/2)
				break
			}
			s.retire(inst)
			// A freed GPU may unblock another deployment's launch.
			if err := s.tick(); err != nil {
				return nil, err
			}
			if err := s.dispatchIdle(); err != nil {
				return nil, err
			}
		}
	}
	if err := s.src.Err(); err != nil {
		return nil, err
	}
	if s.completed != s.created {
		return nil, fmt.Errorf("serverless: %d of %d requests completed", s.completed, s.created)
	}
	return s.assemble(), nil
}

// nodeUp opens the node's cost interval when its first instance lands.
func (s *simulation) nodeUp(n *nodeState) {
	if n.liveInsts == 0 {
		n.upSince = s.now
	}
	n.liveInsts++
}

// nodeDown closes the node's cost interval when its last instance
// leaves.
func (s *simulation) nodeDown(n *nodeState) {
	n.liveInsts--
	if n.liveInsts == 0 {
		n.upTime += s.now - n.upSince
	}
}

// retire takes an instance out of service, settling its GPU-time
// account and recycling its state.
func (s *simulation) retire(inst *instState) {
	d := s.deps[inst.dep]
	if inst.ready && !inst.iterating {
		d.idle--
	}
	s.nodes[inst.node].gpusUsed -= d.cfg.TPDegree
	s.nodeDown(s.nodes[inst.node])
	d.live--
	d.liveChanged()
	if s.now > inst.launchedAt {
		s.gpuSeconds += (s.now - inst.launchedAt).Seconds() * float64(d.cfg.TPDegree)
	}
	d.removeActive(inst)
	s.freeInst(inst)
}

// assemble builds the results, including GPU- and node-time accounting.
func (s *simulation) assemble() *FleetResult {
	out := &FleetResult{Config: s.cfg, Metrics: s.reg, Makespan: s.lastDone,
		GPUSeconds: s.gpuSeconds, Completed: s.completed, Work: s.work}
	for _, d := range s.deps {
		d.cIterations.Add(d.iterations)
		completed := int(d.cCompleted.Value())
		coldStarts := int(d.cColdStarts.Value())
		degraded := int(d.reg.Counter("degraded_cold_starts").Value())
		res := &FleetDeployment{
			Result: Result{
				TTFT:            d.sTTFT,
				E2E:             d.sE2E,
				Completed:       completed,
				Makespan:        d.lastDone - d.firstArr,
				Throughput:      metrics.Throughput(completed, d.lastDone-d.firstArr),
				ColdStarts:      coldStarts,
				Degraded:        degraded,
				PeakInstances:   int(d.gLive.Max()),
				ColdStartPhases: d.phases,
				ColdStartTotal:  d.csTotal,
				Metrics:         d.reg,
			},
			Name:      d.name,
			ColdStart: d.sColdStart,
		}
		if d.cPreempt != nil {
			res.TPOT = d.sTPOT
			res.Preemptions = int(d.cPreempt.Value())
		}
		if d.cSLOMet != nil {
			res.SLOMet = int(d.cSLOMet.Value())
			out.SLOMet += res.SLOMet
		}
		out.PerDeployment = append(out.PerDeployment, res)
		out.TotalColdStarts += coldStarts
		out.Degraded += degraded
		// Instances still live at the end are charged to the last
		// completion, as if decommissioned with the cluster.
		for _, inst := range d.active {
			if s.lastDone > inst.launchedAt {
				out.GPUSeconds += (s.lastDone - inst.launchedAt).Seconds() * float64(d.cfg.TPDegree)
			}
		}
	}
	out.Requeued = int(s.reg.Counter("requeued").Value())
	out.NodeCrashes = int(s.reg.Counter("node_crashes").Value())
	for _, n := range s.nodes {
		nr := NodeResult{ID: n.id, Launches: n.launches, Crashed: n.crashed}
		if n.cache != nil {
			nr.Cache = n.cache.Stats()
		}
		out.PerNode = append(out.PerNode, nr)
		out.Cache.Add(nr.Cache)
		// Nodes still hosting instances are charged to the last
		// completion, mirroring the GPU-seconds convention above.
		up := n.upTime
		if n.liveInsts > 0 && s.lastDone > n.upSince {
			up += s.lastDone - n.upSince
		}
		out.NodeSeconds += up.Seconds()
	}
	return out
}

// tick is the control plane's single evaluation point: every event
// that can change demand or capacity (arrival, iteration end, idle
// retirement, node crash) funnels here. Each deployment's desired
// instance count comes from the pluggable autoscale policy, and
// launches repeat round-robin (so no model starves) until every policy
// is satisfied or no node can host another instance.
//
// The last answer is reused while the deployment's outstanding and
// live counts are unchanged and the instant the policy's Horizon gave
// for it has not been reached; a policy without Horizon is asked every
// time. That skips only the policy call: a deployment blocked on
// capacity still has live < desired and still tries a launch on every
// tick, so launch order, event order and fault draws are those of a
// full evaluation. tick also keeps s.validUntil, the earliest horizon,
// at which coalesced runs stop (runSteps); a horizon that moves back
// would invalidate runs already capped, so it is an error.
func (s *simulation) tick() error {
	progress := true
	for progress {
		progress = false
		horizon := time.Duration(math.MaxInt64)
		for di, d := range s.deps {
			want := d.desired
			if d.askedOut != d.outstanding || d.askedLive != d.live || s.now >= d.validUntil {
				s.work.Desired++
				want = s.scaler.Desired(di, s.observe(di))
				d.desired, d.askedOut, d.askedLive = want, d.outstanding, d.live
				until := s.now
				if s.horizon != nil {
					until = s.horizon.Until(di, s.now)
				}
				if until < d.validUntil {
					return fmt.Errorf("serverless: %s: autoscale horizon went backwards (%v after %v)", d.name, until, d.validUntil)
				}
				d.validUntil = until
			}
			horizon = min(horizon, d.validUntil)
			// The check stays out of launchOne, whose large frame would
			// otherwise be set up on every tick.
			if d.live >= want {
				continue
			}
			launched, err := s.launchOne(di)
			if err != nil {
				return err
			}
			if launched {
				progress = true
			}
		}
		s.validUntil = horizon
	}
	return nil
}

// localityScore grades how close a node's cache is to holding the
// artifact: RAM-resident is ideal, an in-flight transfer is nearly as
// good (it lands while the container boots), SSD costs one local read.
func localityScore(tier artifactcache.Tier, ok bool) float64 {
	if !ok {
		return 0
	}
	switch tier {
	case artifactcache.TierRAM:
		return 1.0
	case artifactcache.TierRemote: // in-flight
		return 0.9
	case artifactcache.TierSSD:
		return 0.7
	}
	return 0
}

// placeNode picks the launch node: among nodes with enough free GPUs,
// the one maximizing LocalityWeight·locality − load. Strict comparison
// over ascending ids makes ties go to the lowest node id. Returns nil
// when no node can host the instance.
func (s *simulation) placeNode(d *depState) *nodeState {
	var best *nodeState
	bestScore := 0.0
	for _, n := range s.nodes {
		if n.crashed || n.gpusUsed+d.cfg.TPDegree > s.cfg.GPUsPerNode {
			continue
		}
		score := -float64(n.gpusUsed) / float64(s.cfg.GPUsPerNode)
		if n.cache != nil && d.key != "" && s.cfg.LocalityWeight > 0 {
			tier, ok := n.cache.Locate(d.key, s.now)
			score += s.cfg.LocalityWeight * localityScore(tier, ok)
		}
		if best == nil || score > bestScore {
			best = n
			bestScore = score
		}
	}
	return best
}

// observe snapshots the deployment state an autoscaling policy sees at
// a control tick.
func (s *simulation) observe(di int) autoscale.Observation {
	d := s.deps[di]
	return autoscale.Observation{
		Now:              s.now,
		Outstanding:      d.outstanding,
		Live:             d.live,
		InstanceTarget:   d.cfg.Scheduler.InstanceTarget,
		ProvisionLatency: d.provLatency,
	}
}

// nodeAnchored reports whether the node hosts a live instance other
// than except that is earning its keep — busy, or idle for less than
// its deployment's retirement timeout. Instances that are themselves
// retirement-overdue do not anchor: two overdue instances must not
// keep each other's node up.
func (s *simulation) nodeAnchored(node int, except *instState) bool {
	for _, d := range s.deps {
		for _, inst := range d.active {
			if inst == except || inst.node != node {
				continue
			}
			if !inst.idleNow() || s.now-inst.idleSince < d.cfg.Scheduler.IdleTimeout {
				return true
			}
		}
	}
	return false
}

// retainVeto asks a Retainer policy whether retiring this instance
// would drop its deployment below the keep-warm floor. The veto only
// applies while the instance's node is anchored by other work: warm
// capacity is held when its marginal node-seconds cost is near zero,
// and a node is never kept up solely on a forecast — an instance whose
// node holds nothing but retirement-overdue peers retires on its idle
// timeout exactly like the baseline. Policies without the optional
// extension never veto, so the reactive and legacy paths keep
// unconditional idle-timeout retirement byte for byte.
func (s *simulation) retainVeto(inst *instState) bool {
	r, ok := s.scaler.(autoscale.Retainer)
	if !ok {
		return false
	}
	if !s.nodeAnchored(inst.node, inst) {
		return false
	}
	s.work.Retain++
	di := inst.dep
	return s.deps[di].live-1 < r.Retain(di, s.observe(di))
}

// launchOne starts one instance for the deployment if some node has
// free GPUs. On a node with a cache the launch overlaps runtime
// initialization with the cache's artifact fetch, and loading begins
// when both are done; on a node without one, loading follows runtime
// init and reads the artifact itself.
func (s *simulation) launchOne(di int) (bool, error) {
	d := s.deps[di]
	node := s.placeNode(d)
	if node == nil {
		return false, nil
	}
	inst := s.newInst(di, node.id)
	inst.idleSince = s.now
	inst.launchedAt = s.now
	node.gpusUsed += d.cfg.TPDegree
	node.launches++
	s.nodeUp(node)
	d.active = append(d.active, inst)
	d.cColdStarts.Inc()
	d.live++
	d.liveChanged()

	intervals := s.scratchIntervals[:0]
	riEnd := s.now
	if node.warmLeft == 0 {
		// Warm pool exhausted: this launch also initializes its
		// execution environment (container, Python, framework).
		riEnd = s.now + runtimeInitDuration
		intervals = append(intervals, obs.Interval{
			Phase: engine.StageRuntimeInit, Start: s.now, End: riEnd})
	} else if node.warmLeft > 0 {
		node.warmLeft--
	}
	loadStart := riEnd
	prof := d.prof
	var fetch artifactcache.FetchResult
	// reason is set when the Medusa restore is abandoned; wasted is
	// failed-read and verification time charged from loadStart.
	reason := ""
	var wasted time.Duration
	switch {
	case node.cache == nil:
		// The launch reads its artifact from storage after runtime init;
		// each failed attempt costs the full read.
		if d.fallback != nil && !s.inj.Retry(faults.SiteSSDRead, d.key, func(backoff time.Duration) {
			wasted += d.artRead + backoff
			d.reg.Counter("faults_ssd_read").Inc()
			if backoff > 0 {
				d.reg.Counter("fetch_retries").Inc()
			}
		}) {
			reason = faults.ReasonSSDReadFailed
		}
	case d.key != "":
		var err error
		if d.tmplKey != "" && d.fallback != nil && s.inj.Inject(faults.SiteTemplateMissing, d.tmplKey) {
			// The registry lost the shared template (operator error,
			// partial GC): the delta is undecodable without it, so the
			// fetch fails after one registry round trip (the 404).
			fetch.Ready = s.now + s.registry.FetchDuration(0)
			reason = faults.ReasonTemplateMissing
		} else if fetch, err = node.cache.FetchPair(s.now, d.key, d.tmplKey); err != nil {
			// The registry fetch failed (retry budget exhausted, or the
			// template is absent). The failed attempts still burned
			// virtual time up to fetch.Ready, the instant failure was
			// known; the vanilla stages then read weights from the
			// model store rather than the artifact registry.
			var degradable bool
			if reason, degradable = faults.DegradeReason(err); !degradable || d.fallback == nil {
				return false, err
			}
		}
		intervals = append(intervals, obs.Interval{Phase: fetchPhase(reason), Start: s.now, End: fetch.Ready})
		if fetch.Ready > loadStart {
			loadStart = fetch.Ready
		}
	}
	if reason == "" && d.fallback != nil {
		var w time.Duration
		w, reason = s.verifyRestore(d, node.cache)
		wasted += w
	}
	if reason != "" {
		s.degradeLaunch(d, inst, reason)
		prof = d.fallback
	}
	if wasted > 0 {
		intervals = append(intervals, obs.Interval{Phase: fetchPhase(reason), Start: loadStart, End: loadStart + wasted})
		loadStart += wasted
	}
	for _, st := range prof.timeline {
		intervals = append(intervals, obs.Interval{Phase: st.Phase, Start: loadStart + st.Start, End: loadStart + st.End})
	}
	d.phases.AddExclusive(intervals)
	ready := loadStart + prof.coldStart
	d.csTotal += ready - s.now
	if d.sColdStart != nil {
		d.sColdStart.Add(ready - s.now)
	}
	if tr := d.cfg.Tracer; tr != nil {
		root := tr.StartSpan(s.instTrack(inst), "cold_start", s.now).
			Tag("cold_start").
			Attr("strategy", d.cfg.Strategy.String()).
			Attr("model", d.cfg.Model.Name)
		if node.cache != nil {
			root.Attr("node", fmt.Sprintf("node%d", node.id))
			if d.key != "" {
				root.Attr("fetch_tier", fetch.Tier.String())
			}
		}
		if inst.degraded != "" {
			root.Attr("degraded_reason", inst.degraded)
		}
		for _, iv := range intervals {
			root.Child(iv.Phase, iv.Start).Tag(iv.Phase).End(iv.End)
		}
		root.End(ready)
	}
	s.scratchIntervals = intervals[:0]
	s.schedule(ready, event{kind: evInstanceReady, inst: inst})
	return true, nil
}

// fetchPhase labels artifact-fetch time: restore_failed when the
// launch degraded (the failed Medusa attempt, charged before the
// vanilla stages start over), artifact_fetch otherwise — including
// transient read errors retried into a late but successful restore.
func fetchPhase(reason string) string {
	if reason != "" {
		return engine.StageRestoreFailed
	}
	return engine.StageArtifactFetch
}

// verifyRestore draws the faults a launch meets after its artifact
// read succeeded, in pipeline order: the shared template fails its
// checksum (the delta cannot resolve against it), the artifact fails
// its checksum, or the restore fails validation. It returns the wasted
// time and the degradation reason ("" when the restore is trusted). A
// checksum failure wastes the read itself — d.artRead, zero on a node
// with a cache, whose fetch is charged separately — and discards the
// untrusted cached copy, which would otherwise poison the next launch
// on the node; a mismatch is caught only after the whole Medusa
// loading phase ran.
func (s *simulation) verifyRestore(d *depState, cache *artifactcache.NodeCache) (time.Duration, string) {
	if d.tmplKey != "" && s.inj.Inject(faults.SiteArtifactCorrupt, d.tmplKey) {
		cache.Discard(d.tmplKey)
		return 0, faults.ReasonCorruptTemplate
	}
	if s.inj.Inject(faults.SiteArtifactCorrupt, d.key) {
		if cache != nil {
			cache.Discard(d.key)
		}
		return d.artRead, faults.ReasonCorruptArtifact
	}
	if s.inj.Inject(faults.SiteRestoreMismatch, d.key) {
		return d.prof.coldStart, faults.ReasonRestoreMismatch
	}
	return 0, ""
}

// instTrack names an instance's tracer lane; instances on a node with
// a cache carry the node in the name.
func (s *simulation) instTrack(inst *instState) string {
	if s.nodes[inst.node].cache == nil {
		return fmt.Sprintf("%s/inst-%d", s.deps[inst.dep].name, inst.id)
	}
	return fmt.Sprintf("%s/node%d/inst-%d", s.deps[inst.dep].name, inst.node, inst.id)
}

// profOf resolves which profile governs an instance's serving costs: the
// deployment's primary profile, or the vanilla fallback when the launch
// degraded.
func (s *simulation) profOf(inst *instState) *profile {
	d := s.deps[inst.dep]
	if inst.degraded != "" && d.fallback != nil {
		return d.fallback
	}
	return d.prof
}

// degradeLaunch records one launch's fall-back to the vanilla cold-start
// stages, in both the deployment's and the fleet's registries.
func (s *simulation) degradeLaunch(d *depState, inst *instState, reason string) {
	inst.degraded = reason
	d.reg.Counter("degraded_cold_starts").Inc()
	d.reg.Counter("degraded_" + reason).Inc()
	s.reg.Counter("degraded_cold_starts").Inc()
	s.reg.Counter("faults_" + reason).Inc()
}

// crashNode kills one node at the plan's instant: its cache tiers are
// lost, its instances (ready or mid-provisioning) retire, and every
// request that was running on it is requeued onto the deployment's
// pending queue for surviving nodes to pick up. TTFT is sampled at most
// once per request, so a requeued request that already streamed tokens
// does not re-enter the TTFT distribution.
func (s *simulation) crashNode(id int) error {
	node := s.nodes[id]
	if node.crashed {
		return nil
	}
	node.crashed = true
	node.cache.MarkLost()
	s.reg.Counter("node_crashes").Inc()
	// Collect the node's instances first: retiring mutates the active
	// lists being walked. Deployment-major order matches the per-
	// deployment requeue order of the original all-instances scan.
	doomed := s.scratchCrash[:0]
	for _, d := range s.deps {
		for _, inst := range d.active {
			if inst.node == id {
				doomed = append(doomed, inst)
			}
		}
	}
	for _, inst := range doomed {
		d := s.deps[inst.dep]
		if !inst.ready {
			// Mid-provisioning: the cold start is lost with the node, and
			// retiring it cancels its evInstanceReady event.
			d.reg.Counter("lost_cold_starts").Inc()
			s.reg.Counter("lost_cold_starts").Inc()
		}
		requeue := func(r *reqState) {
			// Partial generation is lost: the request restarts from its
			// first output token on whichever instance re-admits it.
			d.pending.PushBack(r)
			d.reg.Counter("requeued").Inc()
			s.reg.Counter("requeued").Inc()
		}
		if inst.iterating {
			s.settleRun(inst, inst.stepsBegun(s.now))
		}
		inst.sch.Drain(requeue)
		s.setIterating(inst, false)
		s.retire(inst)
	}
	s.scratchCrash = doomed[:0]
	if err := s.tick(); err != nil {
		return err
	}
	if err := s.dispatchIdle(); err != nil {
		return err
	}
	// Crash events are queued before the loop starts, so the requeued
	// requests precede every step boundary at this instant.
	for _, d := range s.deps {
		s.splitRuns(d, -1)
	}
	return nil
}

// setIterating marks whether an iteration-end event is in flight for
// the instance, keeping its deployment's idle count.
func (s *simulation) setIterating(inst *instState, on bool) {
	if inst.iterating == on {
		return
	}
	inst.iterating = on
	if inst.ready {
		if on {
			s.deps[inst.dep].idle--
		} else {
			s.deps[inst.dep].idle++
		}
	}
}

// dispatchIdle starts iterations on ready instances that are idle and
// have admissible work. A deployment with no idle instance or nothing
// queued is skipped: an idle instance holds no work (every iteration
// end starts the next iteration, and a scheduler that holds work
// always plans some), so without queued requests it has nothing
// to start. Without a router each deployment's live instances are
// walked in launch order (the historical behavior), until no idle
// instance is left or nothing is queued. With a router, dispatchable
// instances are offered work in descending score order, ties to the
// lowest instance id, so queued requests land on the instances the
// policy ranks best.
func (s *simulation) dispatchIdle() error {
	for _, d := range s.deps {
		if s.opts.referenceLoop {
			if err := s.checkIdle(d); err != nil {
				return err
			}
		} else if d.idle == 0 || d.pending.Len() == 0 {
			continue
		}
		if s.router != nil {
			if err := s.routeDispatch(d); err != nil {
				return err
			}
			continue
		}
		for _, inst := range d.active {
			if !s.opts.referenceLoop && (d.idle == 0 || d.pending.Len() == 0) {
				break
			}
			s.work.DispatchSteps++
			if inst.ready && !inst.iterating {
				if err := s.startIteration(inst); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkIdle recounts the deployment's idle instances against its idle
// count, checks that none of them holds work, and checks that every
// instance has exactly the events queued that its state implies: an
// iteration end while iterating, a ready event until ready, and an idle
// check only once ready (reference loop only).
func (s *simulation) checkIdle(d *depState) error {
	n := 0
	for _, inst := range d.active {
		if inst.endEv.Queued() != inst.iterating || inst.readyEv.Queued() == inst.ready ||
			inst.checkEv.Queued() && !inst.ready {
			return fmt.Errorf("serverless: %s inst-%d queued events (end %v, ready %v, idle check %v) disagree with iterating %v, ready %v at %v",
				d.name, inst.id, inst.endEv.Queued(), inst.readyEv.Queued(), inst.checkEv.Queued(), inst.iterating, inst.ready, s.now)
		}
		if inst.ready && !inst.iterating {
			n++
			if !inst.idleNow() {
				return fmt.Errorf("serverless: %s inst-%d holds work while idle at %v", d.name, inst.id, s.now)
			}
		}
	}
	if n != d.idle {
		return fmt.Errorf("serverless: %s idle count %d, recount %d at %v", d.name, d.idle, n, s.now)
	}
	return nil
}

// checkLive checks that the instance event ev, popped at t, belongs to
// an active instance whose state expects it: a ready event before the
// instance is ready, an iteration end while it iterates, an idle check
// once it is ready (reference loop only).
func (s *simulation) checkLive(t time.Duration, ev event) error {
	inst := ev.inst
	live := slices.Contains(s.deps[inst.dep].active, inst)
	switch ev.kind {
	case evInstanceReady:
		live = live && !inst.ready
	case evIterationEnd:
		live = live && inst.iterating
	case evIdleCheck:
		live = live && inst.ready
	}
	if !live {
		return fmt.Errorf("serverless: %s event for inst-%d popped at %v, which does not expect it",
			[...]string{evInstanceReady: "ready", evIterationEnd: "iteration-end", evIdleCheck: "idle-check"}[ev.kind], inst.id, t)
	}
	return nil
}

// routeDispatch scores a deployment's dispatchable instances and
// starts iterations in rank order. Scores are computed once per
// dispatch round: an earlier start in the round does not re-rank the
// rest (the next event's round sees the updated state).
func (s *simulation) routeDispatch(d *depState) error {
	ready := s.scratchRoute[:0]
	cands := s.scratchCands[:0]
	s.work.DispatchSteps += len(d.active)
	for _, inst := range d.active {
		if !inst.ready || inst.iterating {
			continue
		}
		c, err := s.candidate(d, inst)
		if err != nil {
			return err
		}
		ready = append(ready, inst)
		cands = append(cands, c)
	}
	s.scratchRoute, s.scratchCands = ready, cands
	s.work.Scores += len(cands)
	for _, i := range s.ranker.Rank(s.router, cands) {
		if err := s.startIteration(ready[i]); err != nil {
			return err
		}
	}
	return nil
}

// candidate snapshots one instance for the router: queue depth and KV
// headroom from its scheduler, artifact locality of its node's cache,
// and a predicted TTFT (the queue-deepened decode step a newly admitted
// request would wait behind).
func (s *simulation) candidate(d *depState, inst *instState) (router.Candidate, error) {
	depth := inst.sch.Running() + inst.sch.PreemptedWaiting()
	var headroom float64
	if total := d.cfg.Scheduler.Batch.KVBlocks; total > 0 {
		headroom = float64(inst.sch.KVFreeBlocks()) / float64(total)
	}
	locality := 0.0
	if cache := s.nodes[inst.node].cache; cache != nil && d.key != "" {
		tier, ok := cache.Locate(d.key, s.now)
		locality = localityScore(tier, ok)
	}
	// Predicted TTFT: each queued request deepens the batch a new
	// arrival decodes in, so charge one decode step at depth+1 per
	// queue position plus the new request's own (memoized per batch
	// size — this is the hot dispatch path).
	batch := depth + 1
	if max := d.cfg.Scheduler.MaxBatch; max > 0 && batch > max {
		batch = max
	}
	step, err := s.profOf(inst).decodeStep(batch)
	if err != nil {
		return router.Candidate{}, err
	}
	return router.Candidate{
		ID:         inst.id,
		QueueDepth: depth,
		KVHeadroom: headroom,
		Locality:   locality,
		PredTTFT:   (time.Duration(depth+1) * step).Seconds(),
	}, nil
}

// startIteration plans one round through the instance's scheduler and
// prices it with the engine cost model: deferred graph capture (first
// use of a decode batch size), one prefill cost per planned chunk, one
// decode step for the whole decode batch. Under the whole-request
// policy every running request is in the decode batch, so a round costs
// the prefill of each admitted request plus one decode step over all.
//
// When the scheduler says the round repeats (DecodeRun: a pure-decode
// round over every running sequence, with nothing queued or no room to
// admit it), one end event covers every step up to the first
// completion, or the block boundary of a batched sequence, capped by
// runSteps, all of them priced the same decode step.
func (s *simulation) startIteration(inst *instState) error {
	d := s.deps[inst.dep]
	peek := func() (int, int, bool) {
		if d.pending.Len() == 0 {
			return 0, 0, false
		}
		r := d.pending.Front()
		return r.PromptTokens, r.OutputTokens, true
	}
	pop := func() *sched.Seq[*reqState] { return &d.pending.PopFront().seq }
	it := &s.round
	if err := inst.sch.Plan(it, peek, pop); err != nil {
		return err
	}
	if it.Preemptions > 0 {
		d.cPreempt.Add(int64(it.Preemptions))
	}
	if d.cfg.Tracer != nil {
		for _, q := range it.Admitted {
			s.traceQueued(d, q.Data)
		}
	}
	if it.Empty() {
		return nil
	}
	prof := s.profOf(inst)
	var captureDur time.Duration
	var err error
	if prof.deferred && len(it.Decode) > 0 {
		if captureDur, err = inst.captureOnce(prof, len(it.Decode)); err != nil {
			return err
		}
	}
	dur := captureDur
	chunkDur := s.scratchChunkDur[:0]
	for _, ch := range it.Chunks {
		p, err := prof.prefillDur(ch.Tokens)
		if err != nil {
			return err
		}
		chunkDur = append(chunkDur, p)
		dur += p
	}
	s.scratchChunkDur = chunkDur
	var stepDur time.Duration
	if len(it.Decode) > 0 {
		stepDur, err = prof.decodeStep(len(it.Decode))
		if err != nil {
			return err
		}
		dur += stepDur
	}
	s.setIterating(inst, true)
	if tr := d.cfg.Tracer; tr != nil {
		s.traceRound(tr, inst, s.now, s.now+dur, captureDur, stepDur, len(it.Decode), len(it.Admitted), it.Preemptions, it.Chunks, chunkDur)
	}
	inst.runStart, inst.runFirst, inst.runStep, inst.runLen = s.now, dur, stepDur, 1
	inst.runOrigin = s.popAt
	if !s.opts.forcePerStep {
		inst.runLen = s.runSteps(inst, inst.sch.DecodeRun(d.pending.Len() > 0))
	}
	s.scheduleEnd(inst)
	return nil
}

// traceRound records one round's iteration span on the instance's
// track, from start to end: graph capture, one prefill per chunk
// (chunkDur holds their costs), then a decode step over decode
// sequences. It is one of the two places the policies differ outside
// internal/sched. Whole-request deployments (Scheduler.Batch.BatchTokens
// 0) record the flat spans results/trace-demo.json holds: the iteration
// alone, whose batch is the decode batch, every running request.
// Batched ones count the chunks' sequences into the batch, add the
// preemption count, and tile the span with the round's parts, a chunk
// tagged "preempt" when it recomputes an evicted sequence's prefix, so
// phase attribution never drifts.
func (s *simulation) traceRound(tr *obs.Tracer, inst *instState, start, end, capture, step time.Duration,
	decode, admitted, preemptions int, chunks []sched.Chunk[*reqState], chunkDur []time.Duration) {
	phase := "decode"
	switch {
	case len(chunks) > 0 && decode > 0:
		phase = "prefill+decode"
	case len(chunks) > 0:
		phase = "prefill"
	}
	if s.deps[inst.dep].cfg.Scheduler.Batch.BatchTokens == 0 {
		tr.RecordSpan(s.instTrack(inst), "iteration", phase, start, end,
			obs.Attr{Key: "batch", Value: fmt.Sprint(decode)},
			obs.Attr{Key: "admitted", Value: fmt.Sprint(admitted)})
		return
	}
	root := tr.StartSpan(s.instTrack(inst), "iteration", start).
		Tag(phase).
		Attr("batch", fmt.Sprint(decode+len(chunks))).
		Attr("admitted", fmt.Sprint(admitted)).
		Attr("preemptions", fmt.Sprint(preemptions))
	off := start
	if capture > 0 {
		root.Child("graph_capture", off).Tag("capture").End(off + capture)
		off += capture
	}
	for i, ch := range chunks {
		tag := "prefill"
		if ch.Seq.Preemptions() > 0 {
			tag = "preempt"
		}
		root.Child("prefill", off).Tag(tag).
			Attr("tokens", fmt.Sprint(ch.Tokens)).
			End(off + chunkDur[i])
		off += chunkDur[i]
	}
	if decode > 0 {
		root.Child("decode", off).Tag("decode").End(end)
	}
	root.End(end)
}

// traceQueued closes a request's queueing span: it ends when the
// request is admitted into an instance's running batch.
func (s *simulation) traceQueued(d *depState, r *reqState) {
	d.cfg.Tracer.RecordSpan(d.name+"/queue", fmt.Sprintf("req-%d", r.ID), "queued",
		r.Arrival, s.now,
		obs.Attr{Key: "prompt_tokens", Value: fmt.Sprint(r.PromptTokens)},
		obs.Attr{Key: "turn", Value: fmt.Sprint(r.turn)})
}

// captureOnce returns the deferred-capture cost (§2.4) of a decode
// batch of n: the graph size's one-time capture latency the first time
// this instance serves it, inside that request's serving path, and
// zero after.
func (inst *instState) captureOnce(prof *profile, n int) (time.Duration, error) {
	gb, c, err := prof.captureCost(n)
	if err != nil || inst.captured[gb] {
		return 0, err
	}
	if inst.captured == nil {
		inst.captured = make(map[int]bool)
	}
	inst.captured[gb] = true
	return c, nil
}

// runSteps caps a coalesced run of up to k steps, begun now, at the
// first boundary at or after s.validUntil. Every skipped boundary must
// be one where per-step code changes nothing but token counts; the tick
// there is a no-op while no deployment's counts change (every change
// ticks on its own event) and no deployment's horizon has passed, and
// horizons never move back (see tick).
func (s *simulation) runSteps(inst *instState, k int) int {
	first := inst.runStart + inst.runFirst
	switch left := s.validUntil - first; {
	case k <= 1 || left <= 0:
		return 1
	case left <= time.Duration(k-1)*inst.runStep:
		// boundary(j) >= validUntil for j-1 >= ceil(left/runStep).
		return 1 + int((left+inst.runStep-1)/inst.runStep)
	}
	return k
}

// scheduleEnd queues the end of the instance's current run, moving any
// end already queued for it.
func (s *simulation) scheduleEnd(inst *instState) {
	s.schedule(inst.boundary(inst.runLen), event{kind: evIterationEnd, inst: inst})
}

// splitRuns cuts every coalesced run of the deployment that may take
// another request back to its next step boundary, once a request
// pushed at pushedAt (an arrival, or -1 for a crash requeue) is left
// queued: per-step code would plan with it in view there. A run whose
// scheduler is Full has no room and runs on. The queue grows nowhere
// else, so a run is never cut for any other reason. The cut end moves
// in the queue and keeps its sequence number, the one its run's first
// push took.
func (s *simulation) splitRuns(d *depState, pushedAt time.Duration) {
	if s.opts.forcePerStep || d.pending.Len() == 0 {
		return
	}
	for _, inst := range d.active {
		if !inst.iterating || inst.runLen == 1 || inst.sch.Full() {
			continue
		}
		if j := inst.nextBoundary(s.now, pushedAt); j < inst.runLen {
			inst.runLen = j
			s.scheduleEnd(inst)
		}
	}
}

// settleRun books the first steps of the instance's run as done: the
// iteration counters and, under a tracer, one iteration span per step
// after the first, all pure decode. The first step's span was recorded
// when it was planned.
func (s *simulation) settleRun(inst *instState, steps int) {
	d := s.deps[inst.dep]
	d.iterations += int64(steps)
	s.work.Iterations += steps
	if tr := d.cfg.Tracer; tr != nil {
		for j := 2; j <= steps; j++ {
			s.traceRound(tr, inst, inst.boundary(j-1), inst.boundary(j), 0, inst.runStep, inst.sch.Running(), 0, 0, nil, nil)
		}
	}
}

// finishIteration applies the elapsed round, or the elapsed decode run,
// completes finished requests, and starts the next iteration: per-token
// events feed TTFT at the first emission and, under the batched policy,
// TPOT (mean inter-token gap) at completion.
func (s *simulation) finishIteration(inst *instState) error {
	d := s.deps[inst.dep]
	s.settleRun(inst, inst.runLen)
	s.setIterating(inst, false)
	inst.sch.FinishRun(inst.runLen,
		func(r *reqState) { s.firstToken(d, r) },
		func(r *reqState) { s.complete(d, r) })
	if inst.sch.Idle() {
		s.markIdle(inst)
	}
	if err := s.tick(); err != nil {
		return err
	}
	return s.startIteration(inst)
}

// firstToken records a request's TTFT and checks the TTFT deadline,
// once per request: a request requeued by a node crash emits its first
// token again on the instance that re-admits it.
func (s *simulation) firstToken(d *depState, r *reqState) {
	if r.ttftSeen {
		return
	}
	r.ttftSeen = true
	r.firstTok = s.now
	d.sTTFT.Add(s.now - r.Arrival)
	if d.cSLOMet != nil && s.cfg.SLO.TTFT > 0 && s.now-r.Arrival > s.cfg.SLO.TTFT {
		r.sloViolated = true
	}
}

// complete books a finished request — E2E, TPOT (batched deployments
// only), SLO attainment and the completion counters — then spawns its
// follow-up turn and frees it.
func (s *simulation) complete(d *depState, r *reqState) {
	d.sE2E.Add(s.now - r.Arrival)
	if d.sTPOT != nil && r.OutputTokens > 1 {
		tpot := (s.now - r.firstTok) / time.Duration(r.OutputTokens-1)
		d.sTPOT.Add(tpot)
		if d.cSLOMet != nil && s.cfg.SLO.TPOT > 0 && tpot > s.cfg.SLO.TPOT {
			r.sloViolated = true
		}
	}
	if d.cSLOMet != nil && !r.sloViolated {
		d.cSLOMet.Inc()
	}
	d.cCompleted.Inc()
	s.completed++
	d.outstanding--
	d.lastDone = max(d.lastDone, s.now)
	s.lastDone = max(s.lastDone, s.now)
	s.maybeFollowUp(r)
	s.freeReq(r)
}

// maybeFollowUp spawns the next conversation turn after a completion:
// the user reads the answer (think time), then sends a follow-up whose
// prompt carries the accumulated context.
func (s *simulation) maybeFollowUp(r *reqState) {
	d := s.deps[r.dep]
	fu := d.cfg.Workload.FollowUp
	if fu == nil || fu.Probability <= 0 {
		return
	}
	if fu.MaxTurns > 0 && r.turn >= fu.MaxTurns {
		return
	}
	if d.rng.Float64() >= fu.Probability {
		return
	}
	newTokens := fu.NewTokens
	if newTokens <= 0 {
		newTokens = workload.ShareGPTMeanPrompt / 4
	}
	next := s.newReq()
	next.Request = workload.Request{
		ID:           s.nextID,
		Arrival:      s.now + fu.ThinkTime,
		PromptTokens: r.PromptTokens + r.OutputTokens + newTokens,
		OutputTokens: r.OutputTokens,
	}
	next.dep = r.dep
	next.turn = r.turn + 1
	s.nextID++
	s.created++
	d.cFollowUps.Inc()
	s.schedule(next.Arrival, event{kind: evArrival, req: next})
}

// markIdle stamps the instance idle and arms the retirement timer,
// unless a check is already queued: that one fires no later than this
// spell's deadline and re-arms itself for it.
func (s *simulation) markIdle(inst *instState) {
	inst.idleSince = s.now
	if t := s.deps[inst.dep].cfg.Scheduler.IdleTimeout; t > 0 && !inst.checkEv.Queued() {
		s.armIdleCheck(inst, s.now+t)
	}
}

// armIdleCheck queues the instance's one idle check at at.
func (s *simulation) armIdleCheck(inst *instState, at time.Duration) {
	s.schedule(at, event{kind: evIdleCheck, inst: inst})
}
