package serverless

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/medusa-repro/medusa/internal/workload"
)

// ArrivalSource streams (deployment, request) arrivals across a whole
// multi-deployment simulation in nondecreasing arrival order — the form
// the event loop consumes traffic in. Pull-based delivery is what lets
// a 10M-request run hold O(active) request state: a run reads its
// source on a producer goroutine into a fixed ring of 4 blocks of 512
// arrivals, so however long the trace, at most 2048 arrivals wait
// there, plus the one the loop has pulled and not yet fired.
//
// Concurrency: a run calls Next and Err from one goroutine that the run
// owns, never the caller's, and stops and joins it before RunFleet or
// RunMulti returns; from then on the caller may read any state the
// source keeps. During the run a source must not share unsynchronized
// state with the run's policies, tracer or anything else the event loop
// touches. The loop sees the source's arrivals, its Err after the last
// of them, and a panic raised by Next (re-raised on the caller's
// goroutine) exactly as if it pulled the source directly.
type ArrivalSource interface {
	// Next returns the next arrival's deployment index and request, or
	// ok == false once the stream is exhausted (or failed — check Err).
	Next() (dep int, req workload.Request, ok bool)
	// Err reports the error that terminated the stream early, if any.
	Err() error
}

// mergeArrivals k-way merges per-deployment request streams by
// (arrival, deployment index). The deployment-index tie-break matches
// the order the slice-based path has always scheduled simultaneous
// arrivals in (concatenation order), so both paths deliver identical
// arrival sequences.
type mergeArrivals struct {
	srcs  []workload.Source
	heads []workload.Request
	ok    []bool
	err   error
}

// MergeArrivals merges per-deployment sources into one arrival stream.
// Each source must emit requests in nondecreasing arrival order.
func MergeArrivals(perDep []workload.Source) ArrivalSource {
	m := &mergeArrivals{
		srcs:  perDep,
		heads: make([]workload.Request, len(perDep)),
		ok:    make([]bool, len(perDep)),
	}
	for i := range perDep {
		m.advance(i)
		if m.err != nil {
			break
		}
	}
	return m
}

func (m *mergeArrivals) advance(i int) {
	m.heads[i], m.ok[i] = m.srcs[i].Next()
	if !m.ok[i] && m.err == nil {
		m.err = m.srcs[i].Err()
	}
}

func (m *mergeArrivals) Next() (int, workload.Request, bool) {
	if m.err != nil {
		return 0, workload.Request{}, false
	}
	best := -1
	for i := range m.srcs {
		if !m.ok[i] {
			continue
		}
		if best < 0 || m.heads[i].Arrival < m.heads[best].Arrival {
			best = i
		}
	}
	if best < 0 {
		return 0, workload.Request{}, false
	}
	req := m.heads[best]
	m.advance(best)
	if m.err != nil {
		return 0, workload.Request{}, false
	}
	return best, req, true
}

func (m *mergeArrivals) Err() error { return m.err }

// newZipf draws deployment indices in [0, n) with skew s. The skew must
// be finite and > 1: math/rand's sampler never returns for NaN or +Inf.
func newZipf(n int, seed int64, s float64) (*rand.Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serverless: no deployments to split across")
	}
	if !(s > 1) || math.IsInf(s, 1) {
		return nil, fmt.Errorf("serverless: Zipf skew must be finite and > 1, got %g", s)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	if zipf == nil {
		return nil, fmt.Errorf("serverless: invalid Zipf parameters (s=%g, n=%d)", s, n)
	}
	return zipf, nil
}

// ZipfDeployments splits one Poisson arrival process across the given
// deployments with Zipf-distributed popularity (skew s > 1; rank 0 is
// the most popular). The returned slices preserve each deployment's
// own arrival ordering and re-number per-deployment request IDs.
func ZipfDeployments(deps []Deployment, trace []workload.Request, seed int64, s float64) ([]Deployment, error) {
	zipf, err := newZipf(len(deps), seed, s)
	if err != nil {
		return nil, err
	}
	out := make([]Deployment, len(deps))
	copy(out, deps)
	for i := range out {
		out[i].Requests = nil
	}
	for _, r := range trace {
		di := int(zipf.Uint64())
		r.ID = len(out[di].Requests)
		out[di].Requests = append(out[di].Requests, r)
	}
	for i := range out {
		if len(out[i].Requests) == 0 {
			// Every deployment needs at least one request or the core
			// rejects it; steal the tail of the busiest deployment.
			busiest := 0
			for j := range out {
				if len(out[j].Requests) > len(out[busiest].Requests) {
					busiest = j
				}
			}
			if len(out[busiest].Requests) < 2 {
				return nil, fmt.Errorf("serverless: trace too small to cover %d deployments", len(deps))
			}
			last := len(out[busiest].Requests) - 1
			r := out[busiest].Requests[last]
			out[busiest].Requests = out[busiest].Requests[:last]
			r.ID = 0
			out[i].Requests = []workload.Request{r}
		}
	}
	return out, nil
}

// zipfArrivals streams one arrival process across a fleet of
// deployments with Zipf-distributed popularity — the pull-based
// counterpart of ZipfDeployments. Draw order matches ZipfDeployments
// exactly (one Zipf draw per request, in trace order), so both paths
// route request k of the trace to the same deployment. Unlike the
// slice-based splitter it never materializes the trace and never
// reshuffles requests into empty deployments: a deployment the Zipf
// draw skips simply serves no traffic.
type zipfArrivals struct {
	src  workload.Source
	zipf *rand.Zipf
}

// ZipfArrivals wraps a request source into a fleet-wide arrival stream
// with Zipf-distributed deployment popularity (skew s > 1; deployment 0
// is the most popular). numDeps must match the simulation's deployment
// count.
func ZipfArrivals(src workload.Source, numDeps int, seed int64, s float64) (ArrivalSource, error) {
	zipf, err := newZipf(numDeps, seed, s)
	if err != nil {
		return nil, err
	}
	return &zipfArrivals{src: src, zipf: zipf}, nil
}

func (z *zipfArrivals) Next() (int, workload.Request, bool) {
	req, ok := z.src.Next()
	if !ok {
		return 0, workload.Request{}, false
	}
	return int(z.zipf.Uint64()), req, true
}

func (z *zipfArrivals) Err() error { return z.src.Err() }
