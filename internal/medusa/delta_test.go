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
// interleaved, so counting a seed's candidates has to walk a chain
// whose tail holds the other seed. Only the eighth occurrence of the
// first seed is followed by a long match, so a miscount that caps the
// seed early changes the delta.
func TestDeltaIndexSharedBucket(t *testing.T) {
	const tail = "-a-long-tail-that-only-the-eighth-occurrence-has"
	seed := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	filler := func(i, j int) []byte { return bytes.Repeat([]byte{byte('a' + 2*i + j)}, 8) }
	a := seed(0x0123456789abcdef)
	build := func(b []byte) []byte {
		var src []byte
		for i := 0; i < 8; i++ {
			src = append(src, a...)
			if i == 7 {
				return append(src, tail...)
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
	tgt := append(append([]byte("zzzz"), a...), tail...)
	checkDeltaPair(t, &enc, "shared bucket", src, tgt)
	if d := enc.appendDelta(nil, src, tgt); len(d) > 12 {
		t.Fatalf("delta of %d bytes: the eighth occurrence's long match was not found", len(d))
	}
}

// FuzzDeltaEncodeOracle checks the encoder against the oracle on
// arbitrary (src, tgt) pairs.
func FuzzDeltaEncodeOracle(f *testing.F) {
	f.Add([]byte("toy_scale toy_scale toy_scale"), []byte("toy_scale toy_SCALE toy_scale toy_scale"))
	f.Add(make([]byte, 100), make([]byte, 120))
	f.Add([]byte{}, []byte("abc"))
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
