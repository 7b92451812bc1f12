package serverless

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/router"
)

// checkMatchesReference runs the fleet with the held arrival and the
// gated dispatch walk, then in the reference loop (referenceLoop: every
// arrival in the heap, every active instance of every deployment
// walked and, with a router, scored whether or not anything is queued,
// idle counts checked against a recount), and requires identical outputs,
// Chrome trace included, and identical work except dispatch steps and
// Score calls, which may only fall. Each run gets a fleet of its own
// from build, so stateful policies start fresh. The reference loop runs
// first: its checks report a broken invariant as an error before the
// fast loop can run on with it.
func checkMatchesReference(t *testing.T, build func(t *testing.T) Fleet) (fast, ref *FleetResult) {
	t.Helper()
	ref, _, refTrace := runTraced(t, build(t), runOptions{referenceLoop: true})
	fast, _, fastTrace := runTraced(t, build(t), runOptions{})
	if got, want := fast.Render(), ref.Render(); got != want {
		t.Fatalf("Render differs from the reference loop:\n--- fast\n%s\n--- reference\n%s", got, want)
	}
	if got, want := fleetSummary(fast), fleetSummary(ref); got != want {
		t.Fatalf("metrics differ from the reference loop:\n--- fast\n%s\n--- reference\n%s", got, want)
	}
	if fastTrace != refTrace {
		t.Fatalf("Chrome trace differs from the reference loop (%d vs %d bytes)", len(fastTrace), len(refTrace))
	}
	fw, rw := fast.Work, ref.Work
	if fw.DispatchSteps > rw.DispatchSteps {
		t.Errorf("dispatch steps: %d, reference loop %d", fw.DispatchSteps, rw.DispatchSteps)
	}
	if fw.Scores > rw.Scores {
		t.Errorf("Score calls: %d, reference loop %d", fw.Scores, rw.Scores)
	}
	fw.DispatchSteps, rw.DispatchSteps = 0, 0
	fw.Scores, rw.Scores = 0, 0
	if fw != rw {
		t.Errorf("work differs beyond dispatch steps and Score calls:\n fast      %+v\n reference %+v", fw, rw)
	}
	return fast, ref
}

// TestHeldArrivalAndIdleDispatchMatchReference is the oracle for the
// arrival held beside the event queue and the dispatch walk gated on
// idle instances and queued requests: the reference loop must reproduce
// every output byte on legacy, follow-up, crash, exact-tie, batched and
// routed fleets.
func TestHeldArrivalAndIdleDispatchMatchReference(t *testing.T) {
	t.Parallel()
	type fleetCase struct {
		name  string
		build func(t *testing.T) Fleet
	}
	legacy := func(t *testing.T) Fleet { return coalesceFleet(t, func(int, *Config) {}) }
	batched := func(t *testing.T) Fleet { return batchedFleet(t, func(int, *Config) {}) }
	cases := []fleetCase{
		{"legacy", legacy},
		{"follow-ups", func(t *testing.T) Fleet {
			return coalesceFleet(t, func(_ int, c *Config) {
				c.Workload.FollowUp = &FollowUpModel{Probability: 0.4, ThinkTime: 800 * time.Millisecond, MaxTurns: 3}
			})
		}},
		{"crash", func(t *testing.T) Fleet {
			f := legacy(t)
			plan := faults.Presets()["crash"]
			f.Faults = FaultSpec{Plan: &plan}
			return f
		}},
		{"batched", batched},
		{"batched-routed", func(t *testing.T) Fleet {
			f := batched(t)
			scaler, err := autoscale.NewPredictive(autoscale.PredictiveConfig{Window: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			f.Autoscaler = scaler
			f.Router = &router.Scored{}
			f.SLO = SLO{TTFT: time.Second, TPOT: 250 * time.Millisecond}
			return f
		}},
		{"routed", func(t *testing.T) Fleet {
			f := legacy(t)
			f.Router = &router.LeastLoaded{}
			return f
		}},
	}
	for _, tc := range tieCases(t) {
		cases = append(cases, fleetCase{"tie/" + tc.name, tc.fleet})
	}
	// Crashes spread over the run find instances provisioning, mid-run
	// and idle with a check queued; retiring them must cancel every
	// queued event.
	for at := 2 * time.Second; at <= 20*time.Second; at += 1500 * time.Millisecond {
		for _, mode := range []fleetCase{{"legacy", legacy}, {"batched", batched}} {
			cases = append(cases, fleetCase{fmt.Sprintf("crash/%s/at=%v", mode.name, at), func(t *testing.T) Fleet {
				f := mode.build(t)
				plan := faults.Plan{NodeCrashes: []faults.NodeCrash{{Node: int(at/time.Second) % 2, At: faults.Duration(at)}}}
				f.Faults = FaultSpec{Plan: &plan}
				return f
			}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, ref := checkMatchesReference(t, tc.build)
			if fast.Completed == 0 {
				t.Fatal("fixture completed nothing")
			}
			if strings.HasPrefix(tc.name, "crash") && fast.NodeCrashes != 1 {
				t.Errorf("crash preset crashed %d nodes, want 1", fast.NodeCrashes)
			}
			if tc.name == "batched-routed" && fast.Work.Scores == 0 {
				t.Error("routed fleet counted no Score calls")
			}
			t.Logf("dispatch steps %d, reference loop %d; scores %d, reference loop %d (%d completed)",
				fast.Work.DispatchSteps, ref.Work.DispatchSteps, fast.Work.Scores, ref.Work.Scores, fast.Completed)
		})
	}
}

// countingRouter counts the Score calls it forwards.
type countingRouter struct {
	router.Policy
	calls int
}

func (c *countingRouter) Score(cand router.Candidate) float64 {
	c.calls++
	return c.Policy.Score(cand)
}

// TestWorkCountsScores pins Work.Scores to the router's own count of
// Score calls.
func TestWorkCountsScores(t *testing.T) {
	f := coalesceFleet(t, func(int, *Config) {})
	route := &countingRouter{Policy: &router.Scored{}}
	f.Router = route
	res, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	if route.calls == 0 || res.Work.Scores != route.calls {
		t.Fatalf("Work.Scores = %d, router saw %d Score calls", res.Work.Scores, route.calls)
	}
}
