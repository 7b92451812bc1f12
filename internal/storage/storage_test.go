package storage

import (
	"bytes"
	"testing"
	"time"

	"github.com/medusa-repro/medusa/internal/vclock"
)

func TestReadDurationCalibration(t *testing.T) {
	a := DefaultArray()
	// 7.4 GB at the calibrated bandwidth ≈ 0.39 s (Figure 8a anchor).
	gib := float64(1 << 30)
	d := a.ReadDuration(uint64(7.4 * gib))
	if d < 380*time.Millisecond || d > 440*time.Millisecond {
		t.Fatalf("7.4GB read = %v, want ≈0.39-0.42s", d)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	a := DefaultArray()
	if a.WriteDuration(1<<30) <= a.ReadDuration(1<<30) {
		t.Fatal("write not slower than read")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore(DefaultArray())
	clk := vclock.New()
	data := []byte("medusa artifact bytes")
	s.Put(clk, "artifact", data)
	if clk.Now() == 0 {
		t.Fatal("Put charged no time")
	}
	before := clk.Now()
	got, err := s.Get(clk, "artifact")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q", got)
	}
	if clk.Now() == before {
		t.Fatal("Get charged no time")
	}
	// Mutating the returned slice must not affect the stored object.
	got[0] = 'X'
	got2, _ := s.Get(clk, "artifact")
	if got2[0] != 'm' {
		t.Fatal("Get returned aliased storage")
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore(DefaultArray())
	if _, err := s.Get(vclock.New(), "nope"); err == nil {
		t.Fatal("Get of missing object succeeded")
	}
	if s.Exists("nope") {
		t.Fatal("Exists(missing) = true")
	}
}

func TestPutSizedChargesFullSize(t *testing.T) {
	s := NewStore(DefaultArray())
	clk := vclock.New()
	s.PutSized(clk, "weights/llama", 12<<30)
	writeTime := clk.Now()
	minWrite := float64(uint64(12)<<30) / (0.8 * 19e9) * float64(time.Second)
	if float64(writeTime) < minWrite {
		t.Fatalf("PutSized charged %v, want >= %v", writeTime, time.Duration(minWrite))
	}
	if sz, ok := s.Size("weights/llama"); !ok || sz != 12<<30 {
		t.Fatalf("Size = %d, %v", sz, ok)
	}
	before := clk.Now()
	data, err := s.Get(clk, "weights/llama")
	if err != nil || data != nil {
		t.Fatalf("Get sized = %v, %v", data, err)
	}
	if clk.Now()-before < 600*time.Millisecond {
		t.Fatalf("Get of 12GB charged only %v", clk.Now()-before)
	}
}

func TestChargeReadSlowdown(t *testing.T) {
	s := NewStore(DefaultArray())
	c1, c2 := vclock.New(), vclock.New()
	s.ChargeRead(c1, 1<<30, 1)
	s.ChargeRead(c2, 1<<30, 1.5)
	ratio := float64(c2.Now()) / float64(c1.Now())
	if ratio < 1.49 || ratio > 1.51 {
		t.Fatalf("slowdown ratio = %v, want 1.5", ratio)
	}
	// Slowdown below 1 clamps to 1 (contention cannot speed reads up).
	c3 := vclock.New()
	s.ChargeRead(c3, 1<<30, 0.5)
	if c3.Now() != c1.Now() {
		t.Fatal("slowdown < 1 not clamped")
	}
}
