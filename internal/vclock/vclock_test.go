package vclock

import (
	"testing"
	"time"
)

func TestZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %v, want 0", c.Now())
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	c.Advance(3 * time.Second)
	c.Advance(500 * time.Millisecond)
	if got, want := c.Now(), 3500*time.Millisecond; got != want {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-time.Nanosecond)
}

func TestSpanAndStopwatch(t *testing.T) {
	c := New()
	d := c.Span(func() { c.Advance(42 * time.Millisecond) })
	if d != 42*time.Millisecond {
		t.Fatalf("Span = %v, want 42ms", d)
	}
	w := c.StartWatch()
	c.Advance(8 * time.Millisecond)
	if w.Elapsed() != 8*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 8ms", w.Elapsed())
	}
}
