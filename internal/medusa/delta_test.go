package medusa

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// deltaEncodeOracle is the original map-of-slices encoder, kept as the
// reference the flat-array index must match byte for byte: the same
// candidates (the first deltaMaxCandidates positions per exact seed,
// ascending) and the same tie-break (a later candidate wins only with a
// strictly longer run).
func deltaEncodeOracle(src, tgt []byte) []byte {
	var out []byte
	var lit []byte // pending ADD bytes

	flushLit := func() {
		if len(lit) == 0 {
			return
		}
		out = append(out, deltaOpAdd)
		out = binary.AppendUvarint(out, uint64(len(lit)))
		out = append(out, lit...)
		lit = lit[:0]
	}
	emitCopy := func(off, n, cursor int) {
		flushLit()
		out = append(out, deltaOpCopy)
		d := int64(off - cursor)
		out = binary.AppendUvarint(out, uint64((d<<1)^(d>>63)))
		out = binary.AppendUvarint(out, uint64(n))
	}

	var index map[uint64][]int32
	if len(src) >= deltaSeedLen {
		index = make(map[uint64][]int32, len(src)/4)
		for i := 0; i+deltaSeedLen <= len(src); i++ {
			h := binary.LittleEndian.Uint64(src[i:])
			if cands := index[h]; len(cands) < deltaMaxCandidates {
				index[h] = append(cands, int32(i))
			}
		}
	}

	matchLen := func(si, ti int) int {
		n := 0
		for si+n < len(src) && ti+n < len(tgt) && src[si+n] == tgt[ti+n] {
			n++
		}
		return n
	}

	cursor, t := 0, 0
	for t < len(tgt) {
		if cursor < len(src) {
			if run := matchLen(cursor, t); run >= deltaMinAligned {
				emitCopy(cursor, run, cursor)
				cursor += run
				t += run
				continue
			}
		}
		if index != nil && t+deltaSeedLen <= len(tgt) {
			h := binary.LittleEndian.Uint64(tgt[t:])
			bestPos, bestRun := -1, 0
			for _, p := range index[h] {
				if run := matchLen(int(p), t); run > bestRun {
					bestPos, bestRun = int(p), run
				}
			}
			if bestRun >= deltaMinSeed {
				emitCopy(bestPos, bestRun, cursor)
				cursor = bestPos + bestRun
				t += bestRun
				continue
			}
		}
		lit = append(lit, tgt[t])
		t++
		cursor++
	}
	flushLit()
	return out
}

// checkDeltaPair requires the encoder to match the oracle on (src,
// tgt) and the delta to apply back to tgt. One encoder serves every
// pair of a test, so index reuse across calls is covered too.
func checkDeltaPair(t testing.TB, enc *deltaEncoder, what string, src, tgt []byte) {
	t.Helper()
	got := enc.appendDelta(nil, src, tgt)
	if want := deltaEncodeOracle(src, tgt); !bytes.Equal(got, want) {
		t.Fatalf("%s: delta (%d bytes) differs from the oracle's (%d bytes); src %d bytes, tgt %d bytes",
			what, len(got), len(want), len(src), len(tgt))
	}
	back, err := deltaApply(nil, src, got, len(tgt))
	if err != nil || !bytes.Equal(back, tgt) {
		t.Fatalf("%s: delta does not apply back to the target (err %v)", what, err)
	}
}

// TestDeltaIndexSharedBucket forces two seeds into one bucket,
// interleaved, so a lookup of the first seed has to skip the other's
// positions while it counts candidates. Only the eighth occurrence of
// the first seed is followed by a long match, so a miscount that stops
// early changes the delta. A ninth occurrence has a longer match still,
// and must not be tried: the cap is the first deltaMaxCandidates
// positions per exact seed.
func TestDeltaIndexSharedBucket(t *testing.T) {
	const tail = "-a-long-tail-that-only-the-eighth-occurrence-has"
	const more = "-and-a-longer-one-that-only-the-ninth-has"
	seed := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	filler := func(i, j int) []byte { return bytes.Repeat([]byte{byte('a' + 2*i + j)}, 8) }
	a := seed(0x0123456789abcdef)
	build := func(b []byte) []byte {
		var src []byte
		for i := 0; i < 8; i++ {
			src = append(src, a...)
			if i == 7 {
				src = append(append(src, tail...), filler(8, 0)...)
				return append(append(append(src, a...), tail...), more...)
			}
			src = append(append(append(src, filler(i, 0)...), b...), filler(i, 1)...)
		}
		return src
	}
	var enc deltaEncoder
	probe := build(seed(0)) // every candidate b builds a source of this length
	enc.index(probe)
	var b []byte
	for v := uint64(1); b == nil; v++ {
		if enc.bucket(v) == enc.bucket(binary.LittleEndian.Uint64(a)) {
			b = seed(v)
		}
	}
	src := build(b)
	tgt := append(append(append([]byte("zzzz"), a...), tail...), more...)
	checkDeltaPair(t, &enc, "shared bucket", src, tgt)
	// The delta opens ADD(4 "zzzz"), then COPYs from the eighth
	// occurrence exactly the bytes it shares with the target.
	d := enc.appendDelta(nil, src, tgt)
	if len(d) < 7 || d[0] != deltaOpAdd || d[6] != deltaOpCopy {
		t.Fatalf("delta % x does not open with ADD(4) then COPY", d)
	}
	zz, n := binary.Uvarint(d[7:])
	run, _ := binary.Uvarint(d[7+n:])
	eighth := bytes.Index(src, append(append([]byte(nil), a...), tail...))
	if pos := 4 + int(zz>>1); zz&1 != 0 || pos != eighth || run != uint64(len(a)+len(tail)) {
		t.Fatalf("first COPY takes %d bytes at zigzag offset %d, want %d bytes from the eighth occurrence at %d",
			run, zz, len(a)+len(tail), eighth)
	}
}

// TestDeltaIndexZeroRunBucket puts a long zero run in the source and a
// lookup seed in the zero seed's bucket, so the lookup walks past every
// zero position before it reaches its one candidate; the target's own
// zero run then probes the zero seed, whose lookup stops at the cap.
func TestDeltaIndexZeroRunBucket(t *testing.T) {
	const run = 4096
	const tail = "-the-tail-after-the-forced-seed"
	var enc deltaEncoder
	enc.index(make([]byte, run+deltaSeedLen+len(tail)))
	var s []byte
	for v := uint64(1); s == nil; v++ {
		if enc.bucket(v) == enc.bucket(0) {
			s = binary.LittleEndian.AppendUint64(nil, v)
		}
	}
	src := append(append(make([]byte, run), s...), tail...)
	tgt := append(append(append([]byte("zzzz"), s...), tail...), make([]byte, 100)...)
	checkDeltaPair(t, &enc, "zero run", src, tgt)
	checkDeltaPair(t, &enc, "zero run, swapped", tgt, src)
}

// FuzzDeltaEncodeOracle checks the encoder against the oracle on
// arbitrary (src, tgt) pairs.
func FuzzDeltaEncodeOracle(f *testing.F) {
	f.Add([]byte("toy_scale toy_scale toy_scale"), []byte("toy_scale toy_SCALE toy_scale toy_scale"))
	f.Add(make([]byte, 100), make([]byte, 120))
	f.Add([]byte{}, []byte("abc"))
	f.Add(append(make([]byte, 300), "zero-run-then-text"...), append([]byte("x"), make([]byte, 200)...))
	f.Add(bytes.Repeat([]byte("abcd"), 64), append([]byte("ab"), bytes.Repeat([]byte("cdab"), 70)...))
	f.Fuzz(func(t *testing.T, src, tgt []byte) {
		var enc deltaEncoder
		checkDeltaPair(t, &enc, "fuzz", src, tgt)
		checkDeltaPair(t, &enc, "fuzz, swapped", tgt, src)
	})
}

// FuzzDeltaApply drives the delta decoder directly: whatever the
// source, delta bytes and declared length, it never panics, and on
// success it produced at most wantLen bytes. (FuzzDeltaCorrupted cannot
// reach this code: its byte flips fail the CRC checks first.)
func FuzzDeltaApply(f *testing.F) {
	src := []byte("abcdefghijklmnopqrstuvwxyz")
	var enc deltaEncoder
	f.Add(src, enc.appendDelta(nil, src, []byte("abcdXXXXijklmnopqrstuvwxyz!")), 27)
	f.Add(src, []byte{deltaOpAdd, 4, 1, 2, 3, 4, deltaOpCopy, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, math.MaxInt32)
	f.Add([]byte{}, []byte{deltaOpCopy, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1}, 8)
	f.Add(src, []byte{deltaOpAdd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, -1)
	f.Fuzz(func(t *testing.T, src, delta []byte, wantLen int) {
		out, err := deltaApply(nil, src, delta, wantLen)
		if err == nil && len(out) > wantLen {
			t.Fatalf("deltaApply produced %d bytes, declared %d", len(out), wantLen)
		}
	})
}

// TestDeltaApplyHugeLengths is the regression test for lengths whose
// sums overflow: ADD 4 bytes, then a COPY at the cursor (zigzag 0) of
// MaxInt64-1 bytes used to get past the bounds checks and panic.
func TestDeltaApplyHugeLengths(t *testing.T) {
	src := []byte("abcdefgh")
	huge := binary.AppendUvarint(nil, math.MaxInt64-1)
	cases := map[string][]byte{
		"copy":           append([]byte{deltaOpAdd, 4, 'w', 'x', 'y', 'z', deltaOpCopy, 0}, huge...),
		"copy at offset": append([]byte{deltaOpCopy, 2}, huge...),
		"add":            append(append([]byte{deltaOpAdd}, huge...), 'a', 'b'),
		"add after copy": append([]byte{deltaOpCopy, 0, 4, deltaOpAdd}, huge...),
	}
	for name, delta := range cases {
		for _, wantLen := range []int{8, math.MaxInt} {
			if out, err := deltaApply(nil, src, delta, wantLen); err == nil {
				t.Errorf("%s (wantLen %d): applied to %d bytes, want an error", name, wantLen, len(out))
			}
		}
	}
}
