package medusa

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Binary delta codec for the v3 (template+delta) artifact container.
//
// A delta rewrites a target byte string in terms of a source byte
// string as a flat little-endian op stream:
//
//	COPY (0x01): uvarint zigzag(offset − cursor) | uvarint length
//	ADD  (0x02): uvarint length | <length raw bytes>
//
// The cursor tracks the "aligned" source position: it starts at 0 and
// advances with every op (by the copied length for COPY, by the added
// length for ADD). Artifact sections of sibling models — and the
// per-batch graphs of one model — differ almost exclusively by
// in-place substitutions (a dimension or batch scalar replaced by
// another of the same width), so the common case is ADD(4) followed by
// COPY with a zero offset zigzag: ~10 delta bytes per divergence site
// however long the matching runs between sites are.
//
// The encoder is deterministic: a greedy aligned-extension scan with a
// seed-hash index fallback for insertions/deletions, no randomness, no
// map iteration. Determinism is load-bearing — encode→decode→encode
// over a fixed template must be a byte-level fixed point (the v3
// fuzzer enforces it), and registry footprints derived from delta
// sizes must be identical across runs and GOMAXPROCS.

const (
	deltaOpCopy = 0x01
	deltaOpAdd  = 0x02

	// deltaSeedLen is the probe width of the source index.
	deltaSeedLen = 8
	// deltaMinAligned is the shortest run worth a COPY op at the
	// aligned cursor position (op overhead is ~3 bytes).
	deltaMinAligned = 8
	// deltaMinSeed is the shortest run worth a COPY op that moves the
	// cursor (offset zigzag costs more, and a spurious jump desyncs
	// the aligned scan).
	deltaMinSeed = 16
	// deltaMaxCandidates caps the positions a lookup tries per seed
	// value: the first ones in the source.
	deltaMaxCandidates = 8
)

// deltaEncoder computes deltas. Its seed index over the source is a
// chained hash table in flat arrays, kept between calls so one
// EncodeDelta indexes every section and chained graph in the same
// memory. Links store a position plus one, so 0 ends a chain and
// clear resets the table. Each chain holds every source position in
// its bucket, in ascending order: index builds it in one descending
// pass, one random access per position. The candidate cap is applied
// at lookup: appendDelta tries the first deltaMaxCandidates positions
// whose seed equals the probe's, skipping the other seeds that share
// the bucket — so a probe whose bucket also holds a heavily repeated
// seed walks that seed's whole run of positions. The bucket count sets
// a lookup's steps, never its candidates: one bucket per four positions
// costs no time over one per position, in a quarter of the memory, as a
// delta looks up few of the positions it indexes (zoo: 556k of 26.0M).
type deltaEncoder struct {
	head  []int32 // per bucket: its first position plus one, 0 if empty
	next  []int32 // per position: the next one in its bucket plus one, 0 at the end
	shift uint    // 64 − log2(len(head)): bucket keeps the hash's top bits
}

func seedAt(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[i:]) }

func (e *deltaEncoder) bucket(seed uint64) int32 {
	return int32((seed * 0x9e3779b97f4a7c15) >> e.shift)
}

// index builds the seed index over src (len(src) ≥ deltaSeedLen).
func (e *deltaEncoder) index(src []byte) {
	n := len(src) - deltaSeedLen + 1
	logBuckets := uint(4)
	for 1<<logBuckets < n/4 {
		logBuckets++
	}
	e.shift = 64 - logBuckets
	if cap(e.head) < 1<<logBuckets {
		e.head = make([]int32, 1<<logBuckets)
	} else {
		e.head = e.head[:1<<logBuckets]
		clear(e.head)
	}
	if cap(e.next) < n {
		e.next = make([]int32, n)
	}
	head, next := e.head, e.next[:n]
	// Prepending in descending order leaves every chain ascending.
	for i := n - 1; i >= 0; i-- {
		b := e.bucket(seedAt(src, i))
		next[i] = head[b]
		head[b] = int32(i + 1)
	}
}

// matchLen returns the length of the common prefix of a and b,
// comparing eight bytes at a time.
func matchLen(a, b []byte) int {
	n := 0
	for n+8 <= len(a) && n+8 <= len(b) {
		if x := seedAt(a, n) ^ seedAt(b, n); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
		n += 8
	}
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// appendDelta appends a delta that rewrites tgt in terms of src to out.
// deltaApply(src, delta, len(tgt)) == tgt for every input pair; the
// encoding is a pure deterministic function of (src, tgt), whatever
// the encoder's earlier calls.
func (e *deltaEncoder) appendDelta(out, src, tgt []byte) []byte {
	indexed := len(src) >= deltaSeedLen
	if indexed {
		e.index(src)
	}
	// tgt[lit:t] is the pending ADD run: every byte the scan passes
	// over without a COPY.
	cursor, t, lit := 0, 0, 0
	for t < len(tgt) {
		// Aligned extension: the overwhelmingly common case after an
		// in-place substitution.
		if cursor < len(src) {
			if run := matchLen(src[cursor:], tgt[t:]); run >= deltaMinAligned {
				out = appendDeltaCopy(appendDeltaAdd(out, tgt[lit:t]), 0, run)
				cursor += run
				t += run
				lit = t
				continue
			}
		}
		// Seed resync: insertions, deletions, and reordered content.
		// The candidates are the first deltaMaxCandidates positions with
		// this exact seed, tried in ascending source position; a later
		// one wins only with a strictly longer run.
		if indexed && t+deltaSeedLen <= len(tgt) {
			seed := seedAt(tgt, t)
			bestPos, bestRun, cands := -1, 0, 0
			for p := e.head[e.bucket(seed)]; p != 0 && cands < deltaMaxCandidates; p = e.next[p-1] {
				pos := int(p - 1)
				if seedAt(src, pos) != seed {
					continue
				}
				cands++
				if run := matchLen(src[pos:], tgt[t:]); run > bestRun {
					bestPos, bestRun = pos, run
				}
			}
			if bestRun >= deltaMinSeed {
				out = appendDeltaCopy(appendDeltaAdd(out, tgt[lit:t]), bestPos-cursor, bestRun)
				cursor = bestPos + bestRun
				t += bestRun
				lit = t
				continue
			}
		}
		t++
		cursor++
	}
	return appendDeltaAdd(out, tgt[lit:])
}

// appendDeltaAdd appends an ADD op for lit, or nothing when lit is empty.
func appendDeltaAdd(out, lit []byte) []byte {
	if len(lit) == 0 {
		return out
	}
	out = append(out, deltaOpAdd)
	out = binary.AppendUvarint(out, uint64(len(lit)))
	return append(out, lit...)
}

// appendDeltaCopy appends a COPY op of n bytes at rel past the cursor.
func appendDeltaCopy(out []byte, rel, n int) []byte {
	out = append(out, deltaOpCopy)
	d := int64(rel)
	out = binary.AppendUvarint(out, uint64((d<<1)^(d>>63)))
	return binary.AppendUvarint(out, uint64(n))
}

// deltaApply appends the target reconstructed from src and a delta to
// dst, bounding the appended output at wantLen bytes. It never panics:
// malformed ops, out-of-range copies and oversized outputs return
// descriptive errors (the v3 decoder wraps them in the typed
// corruption error). dst may share an array with src: only bytes past
// len(dst) are written.
func deltaApply(dst, src, delta []byte, wantLen int) ([]byte, error) {
	if wantLen < 0 {
		return nil, fmt.Errorf("negative delta output length %d", wantLen)
	}
	out, base := dst, len(dst)
	cursor := 0
	off := 0
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(delta[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	for off < len(delta) {
		op := delta[off]
		off++
		switch op {
		case deltaOpCopy:
			zz, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("truncated copy offset at delta byte %d", off)
			}
			n64, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("truncated copy length at delta byte %d", off)
			}
			rel := int64(zz>>1) ^ -int64(zz&1)
			srcOff := int64(cursor) + rel
			n := int64(n64)
			// Compare against differences: a sum of two untrusted
			// lengths can overflow past the check.
			if srcOff < 0 || srcOff > int64(len(src)) || n < 0 || n > int64(len(src))-srcOff {
				return nil, fmt.Errorf("copy of %d bytes at %d outside %d-byte source", n64, srcOff, len(src))
			}
			if n > int64(wantLen-(len(out)-base)) {
				return nil, fmt.Errorf("delta output exceeds declared %d bytes", wantLen)
			}
			out = append(out, src[srcOff:srcOff+n]...)
			cursor = int(srcOff + n)
		case deltaOpAdd:
			n64, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("truncated add length at delta byte %d", off)
			}
			n := int(n64)
			if n < 0 || n > len(delta)-off {
				return nil, fmt.Errorf("add of %d bytes overruns %d-byte delta", n64, len(delta))
			}
			if n > wantLen-(len(out)-base) {
				return nil, fmt.Errorf("delta output exceeds declared %d bytes", wantLen)
			}
			out = append(out, delta[off:off+n]...)
			off += n
			cursor += n
		default:
			return nil, fmt.Errorf("unknown delta op %#x at byte %d", op, off-1)
		}
	}
	return out, nil
}
