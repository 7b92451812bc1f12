package obs

import (
	"strings"
	"testing"
	"time"
)

func TestAddExclusiveZeroDriftWithOverlap(t *testing.T) {
	// Async-style overlap: weights stream [0,30], tokenizer [10,20]
	// entirely inside it, kv [25,40] straddling the end.
	ivs := []Interval{
		{Phase: "weights", Start: 0, End: 30 * time.Millisecond},
		{Phase: "tokenizer", Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
		{Phase: "kv", Start: 25 * time.Millisecond, End: 40 * time.Millisecond},
	}
	b := NewPhaseBreakdown()
	b.AddExclusive(ivs)
	if got, want := b.Total(), 40*time.Millisecond; got != want {
		t.Fatalf("Total = %v, want hull extent %v", got, want)
	}
	// Earliest-started interval owns every covered instant: weights gets
	// all of [0,30) (tokenizer is fully shadowed), kv only [30,40).
	if d := b.Duration("weights"); d != 30*time.Millisecond {
		t.Errorf("weights = %v, want 30ms", d)
	}
	if d := b.Duration("tokenizer"); d != 0 {
		t.Errorf("tokenizer = %v, want 0 (shadowed by weights)", d)
	}
	if d := b.Duration("kv"); d != 10*time.Millisecond {
		t.Errorf("kv = %v, want 10ms", d)
	}
}

func TestAddExclusiveChargesGaps(t *testing.T) {
	b := NewPhaseBreakdown()
	b.AddExclusive([]Interval{
		{Phase: "a", Start: 0, End: 10 * time.Millisecond},
		{Phase: "b", Start: 30 * time.Millisecond, End: 40 * time.Millisecond},
	})
	if d := b.Duration(GapPhase); d != 20*time.Millisecond {
		t.Errorf("gap = %v, want 20ms", d)
	}
	if got, want := b.Total(), 40*time.Millisecond; got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestTimelineIntervalsRoundTrip(t *testing.T) {
	var tl Timeline
	tl.Record("struct", 0, 100*time.Millisecond)
	tl.Record("weights", 100*time.Millisecond, 400*time.Millisecond)
	tl.Record("tok", 150*time.Millisecond, 250*time.Millisecond)
	b := NewPhaseBreakdown()
	b.AddExclusive(tl)
	if got, want := b.Total(), tl.Total(); got != want {
		t.Fatalf("attributed %v, timeline extent %v — drift %v", got, want, got-want)
	}
}

func TestTimelineRecordAndLookup(t *testing.T) {
	var tl Timeline
	tl.Record("weights", 1*time.Second, 2*time.Second)
	tl.Record("tokenizer", 1*time.Second, 1500*time.Millisecond)
	s, ok := tl.Stage("weights")
	if !ok || s.Duration() != time.Second {
		t.Fatalf("Stage(weights) = %+v, %v", s, ok)
	}
	if tl.StageDuration("missing") != 0 {
		t.Fatal("missing stage has nonzero duration")
	}
	if _, ok := tl.Stage("missing"); ok {
		t.Fatal("missing stage found")
	}
}

func TestTimelineStartOrderStableTies(t *testing.T) {
	var tl Timeline
	tl.Record("late", 5*time.Second, 6*time.Second)
	tl.Record("early", 1*time.Second, 2*time.Second)
	tl.Record("tie-a", 3*time.Second, 4*time.Second)
	tl.Record("tie-b", 3*time.Second, 3*time.Second)
	tl.Record("tie-c", 3*time.Second, 7*time.Second)
	var got []string
	for _, iv := range tl {
		got = append(got, iv.Phase)
	}
	want := []string{"early", "tie-a", "tie-b", "tie-c", "late"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl Timeline
	if tl.Total() != 0 {
		t.Fatal("empty total nonzero")
	}
	if len(tl) != 0 {
		t.Fatal("empty timeline has stages")
	}
}

func TestTimelineTotalWithOverlap(t *testing.T) {
	var tl Timeline
	tl.Record("a", time.Second, 4*time.Second)
	tl.Record("b", 2*time.Second, 3*time.Second) // nested in a
	tl.Record("c", 3*time.Second, 6*time.Second)
	if got := tl.Total(); got != 5*time.Second {
		t.Fatalf("Total = %v, want 5s", got)
	}
}

func TestTimelineZeroLengthStageKept(t *testing.T) {
	var tl Timeline
	tl.Record("kv_init", time.Second, time.Second)
	if _, ok := tl.Stage("kv_init"); !ok {
		t.Fatal("zero-length stage dropped")
	}
}

func TestTimelineBackwardsStagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards stage did not panic")
		}
	}()
	var tl Timeline
	tl.Record("bad", 2*time.Second, time.Second)
}

func TestTableListsPhasesInFirstChargedOrder(t *testing.T) {
	b := NewPhaseBreakdown()
	b.Add("zeta", time.Second)
	b.Add("alpha", time.Second)
	tab := b.Table()
	if zi, ai := strings.Index(tab, "zeta"), strings.Index(tab, "alpha"); zi < 0 || ai < 0 || zi > ai {
		t.Errorf("phases not in first-charged order:\n%s", tab)
	}
	if !strings.Contains(tab, "TOTAL") {
		t.Errorf("missing TOTAL row:\n%s", tab)
	}
}

func TestRegistryCreateOnFirstUse(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	if v := r.Counter("c").Value(); v != 4 {
		t.Errorf("counter = %d, want 4", v)
	}
	g := r.Gauge("g")
	g.Update(5)
	g.Update(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Errorf("gauge value=%g max=%g, want 2 and 5", g.Value(), g.Max())
	}
	r.Sample("s").Add(time.Second)
	if names := r.SampleNames(); len(names) != 1 || names[0] != "s" {
		t.Errorf("SampleNames = %v", names)
	}
	if out := r.Render(); !strings.Contains(out, "counter c") {
		t.Errorf("Render missing counter:\n%s", out)
	}
}
