package medusa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/faults"
)

// FuzzDecode hardens the artifact parser: arbitrary bytes must never
// panic, and anything that decodes successfully must re-encode to a
// byte-identical artifact (canonical form).
func FuzzDecode(f *testing.F) {
	// Seed with a small hand-built artifact and corruptions of it.
	art := &Artifact{
		ModelName:  "fuzz",
		AllocCount: 1,
		AllocSeq:   []AllocRecord{{AllocIndex: 0, Size: 64, Label: "weights"}},
		PrefixLen:  1,
		Graphs: []GraphRecord{{Batch: 1, Nodes: []NodeRecord{{
			KernelName: "k",
			Params: []ParamRecord{
				{Image: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, Size: 8, Pointer: true, AllocIndex: 0, Offset: 8},
				{Image: [8]byte{9, 9, 9, 9}, Size: 4},
			},
		}}}},
		Kernels:   map[string]KernelLoc{"k": {Library: "lib.so", Exported: true}},
		Permanent: []PermRecord{{AllocIndex: 0, Size: 4, Contents: []byte{1, 2, 3, 4}}},
		KV:        KVRecord{FreeMemBytes: 1 << 20, NumBlocks: 2, BlockBytes: 4},
	}
	raw, err := art.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:16])
	f.Add([]byte("MDSA"))
	f.Add([]byte{})
	trunc := append([]byte(nil), raw[:len(raw)/2]...)
	f.Add(trunc)
	f.Add(imageArtifact(0))
	f.Add(imageArtifact(9))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re, err := a.Encode()
		if err != nil {
			t.Fatalf("decoded artifact fails to re-encode: %v", err)
		}
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded artifact fails to decode: %v", err)
		}
		re2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("encode → decode → encode is not a fixed point")
		}
	})
}

// imageArtifact returns the v2 encoding of a one-node artifact whose
// only parameter is a constant image width bytes wide. It writes the
// wire format directly, so widths no ParamRecord can hold (over the
// 8-byte limit) and widths validation rejects are both reachable.
func imageArtifact(width int) []byte {
	b := make([]byte, envelopeLen)
	var crcs []uint32
	last := len(b)
	mark := func() {
		crcs = append(crcs, crc32.ChecksumIEEE(b[last:]))
		last = len(b)
	}
	b = appendStr(b, "image")
	b = appendU32(b, 0) // alloc count
	b = appendU32(b, 0) // prefix
	mark()
	b = appendU32(b, 0) // no alloc events
	mark()
	b = appendU32(b, 1) // one graph
	b = appendU32(b, 1) // batch 1
	b = appendU32(b, 1) // one node
	b = appendStr(b, "k")
	b = appendU32(b, 0) // no deps
	b = appendU32(b, 1) // one param
	b = appendBlob(b, bytes.Repeat([]byte{7}, width))
	b = appendBool(b, false)
	b = appendU32(b, 0)
	b = appendU64(b, 0)
	mark()
	b = appendU32(b, 1)
	b = appendStr(b, "k")
	b = appendStr(b, "lib.so")
	b = appendBool(b, true)
	mark()
	b = appendU32(b, 0) // no permanent records
	mark()
	b = appendU64(b, 0)
	b = appendU32(b, 0)
	b = appendU64(b, 0)
	mark()
	b = append(b, uint8(len(crcs)))
	for _, c := range crcs {
		b = appendU32(b, c)
	}
	return seal(b, wireMagic, CurrentFormatVersion)
}

// checkImageWidth decodes imageArtifact(width): 4- and 8-byte images
// decode and re-encode to the same bytes, a wider one fails the
// decoder's own limit check, and any other width fails validation.
func checkImageWidth(t *testing.T, width int) {
	t.Helper()
	raw := imageArtifact(width)
	a, err := Decode(raw)
	switch {
	case width == 4 || width == 8:
		if err != nil {
			t.Fatalf("%d-byte image: %v", width, err)
		}
		re, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("%d-byte image does not re-encode to its bytes", width)
		}
	case width > maxParamImage:
		want := fmt.Sprintf("param image of %d bytes exceeds limit %d", width, maxParamImage)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d-byte image: error %v, want %q", width, err, want)
		}
	default:
		want := fmt.Sprintf("has %d-byte image", width)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d-byte image: error %v, want %q", width, err, want)
		}
	}
}

// TestDecodeImageWidths pins the image-width rules at the wire level,
// for every width up to one past the limit.
func TestDecodeImageWidths(t *testing.T) {
	for width := 0; width <= maxParamImage+1; width++ {
		checkImageWidth(t, width)
	}
}

// buildFuzzArtifact derives a structurally valid artifact from a seeded
// generator, so the round-trip fuzzer explores the encoder's whole
// input space (not just what byte-level mutation of one seed reaches).
func buildFuzzArtifact(rng *rand.Rand, nAlloc, nGraphs, nKernels int, omitContents bool) *Artifact {
	a := &Artifact{
		ModelName:  fmt.Sprintf("fuzz-%x", rng.Int63()),
		AllocCount: nAlloc,
		Kernels:    make(map[string]KernelLoc),
	}
	for i := 0; i < nAlloc; i++ {
		label := ""
		if rng.Intn(2) == 0 {
			label = fmt.Sprintf("buf%d", i)
		}
		a.AllocSeq = append(a.AllocSeq, AllocRecord{AllocIndex: i, Size: uint64(rng.Int63()), Label: label})
		if rng.Intn(3) == 0 {
			a.AllocSeq = append(a.AllocSeq, AllocRecord{Free: true, AllocIndex: rng.Intn(i + 1)})
		}
	}
	a.PrefixLen = rng.Intn(len(a.AllocSeq) + 1)

	names := make([]string, nKernels)
	for i := range names {
		names[i] = fmt.Sprintf("kernel_%d", i)
		a.Kernels[names[i]] = KernelLoc{Library: fmt.Sprintf("lib%d.so", rng.Intn(3)), Exported: rng.Intn(2) == 0}
	}
	if nKernels > 0 {
		for gi := 0; gi < nGraphs; gi++ {
			g := GraphRecord{Batch: 1 << gi}
			nNodes := rng.Intn(4)
			for ni := 0; ni < nNodes; ni++ {
				n := NodeRecord{KernelName: names[rng.Intn(nKernels)]}
				for pi := rng.Intn(3); pi > 0; pi-- {
					p := ParamRecord{Size: uint8(4 + 4*rng.Intn(2))}
					rng.Read(p.Raw())
					if nAlloc > 0 && rng.Intn(2) == 0 {
						p.Pointer = true
						p.AllocIndex = int32(rng.Intn(nAlloc))
						p.Offset = uint64(rng.Intn(1 << 20))
					}
					n.Params = append(n.Params, p)
				}
				for di := rng.Intn(2); di > 0 && nNodes > 0; di-- {
					n.Deps = append(n.Deps, int32(rng.Intn(nNodes)))
				}
				g.Nodes = append(g.Nodes, n)
			}
			a.Graphs = append(a.Graphs, g)
		}
	}
	for i := 0; i < nAlloc && i < rng.Intn(nAlloc+1); i++ {
		pr := PermRecord{AllocIndex: rng.Intn(nAlloc)}
		if omitContents {
			pr.Size = uint64(rng.Intn(1 << 16))
		} else {
			pr.Contents = make([]byte, rng.Intn(64))
			rng.Read(pr.Contents)
			pr.Size = uint64(len(pr.Contents))
		}
		a.Permanent = append(a.Permanent, pr)
	}
	a.KV = KVRecord{FreeMemBytes: uint64(rng.Int63()), NumBlocks: rng.Intn(1 << 16), BlockBytes: uint64(rng.Intn(1 << 24))}
	return a
}

// FuzzDecodeCorrupted hardens the decoder against damage to otherwise
// valid artifacts: construct a valid artifact, flip one fuzzed byte
// (and optionally truncate), and require Decode to return an error —
// never a panic, and never a silently wrong artifact. Flips inside the
// body must be caught by a checksum and surface as the typed
// *faults.ArtifactCorruptError the degradation paths dispatch on.
func FuzzDecodeCorrupted(f *testing.F) {
	f.Add(int64(1), uint32(20), uint8(0xff), uint16(0))
	f.Add(int64(2), uint32(0), uint8(1), uint16(0))
	f.Add(int64(3), uint32(5), uint8(0x80), uint16(4))
	f.Add(int64(4), uint32(1<<31), uint8(7), uint16(100))

	f.Fuzz(func(t *testing.T, seed int64, pos uint32, mask uint8, truncate uint16) {
		rng := rand.New(rand.NewSource(seed))
		art := buildFuzzArtifact(rng, 3, 2, 2, false)
		raw, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if mask == 0 {
			mask = 1 // guarantee the flip changes the byte
		}
		idx := int(pos % uint32(len(raw)))
		mut := append([]byte(nil), raw...)
		mut[idx] ^= mask
		if truncate > 0 {
			mut = mut[:len(mut)-int(uint32(truncate)%uint32(len(mut)))]
		}
		decoded, err := Decode(mut)
		if err == nil {
			t.Fatalf("corrupting byte %d (mask %#x, truncate %d) decoded cleanly: %+v", idx, mask, truncate, decoded)
		}
		// An untruncated flip inside the body leaves structure intact, so
		// it must be caught by checksum and reported as the typed error.
		if truncate == 0 && idx >= 16 {
			var corrupt *faults.ArtifactCorruptError
			if !errors.As(err, &corrupt) {
				t.Fatalf("body flip at %d surfaced %T (%v), want *faults.ArtifactCorruptError", idx, err, err)
			}
			if corrupt.Section == "" {
				t.Fatalf("corrupt error without a section: %v", corrupt)
			}
		}
	})
}

// TestDecodeCorruptLocalizesSection pins the v2 trailer's purpose: a
// byte flip inside a known section is attributed to that section.
func TestDecodeCorruptLocalizesSection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	art := buildFuzzArtifact(rng, 4, 3, 3, false)
	raw, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sections, err := art.SectionSizes()
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, sec := range sections {
		start, end := off, off+int(sec.Bytes)
		off = end
		if sec.Name == "envelope" || sec.Name == "section_crcs" || sec.Bytes == 0 {
			continue
		}
		mut := append([]byte(nil), raw...)
		mut[start+int(sec.Bytes)/2] ^= 0x55
		_, err := Decode(mut)
		var corrupt *faults.ArtifactCorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("flip in %s: got %T (%v), want ArtifactCorruptError", sec.Name, err, err)
		}
		if corrupt.Section != sec.Name {
			t.Errorf("flip in %s attributed to %q", sec.Name, corrupt.Section)
		}
	}
	if off != len(raw) {
		t.Fatalf("SectionSizes covered %d of %d bytes", off, len(raw))
	}
}

// FuzzTemplateRoundTrip is the v3 analogue of FuzzArtifactRoundTrip:
// build a template from one structure-fuzzed artifact, delta-encode a
// second (independently fuzzed) artifact against it, and require the
// template-resolved decode to be lossless and both encodings to be
// canonical fixed points — including across the v2/v3 boundary, where
// the resolved artifact's self-contained encoding must be byte-equal
// to encoding the original directly.
func FuzzTemplateRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(3), uint8(2), uint8(4), false)
	f.Add(int64(9), int64(9), uint8(5), uint8(3), uint8(3), true) // self-delta
	f.Add(int64(3), int64(-8), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(100), int64(7), uint8(1), uint8(3), uint8(1), true)

	f.Fuzz(func(t *testing.T, refSeed, tgtSeed int64, nAlloc, nGraphs, nKernels uint8, omitContents bool) {
		ref := buildFuzzArtifact(rand.New(rand.NewSource(refSeed)), int(nAlloc%9)+1, int(nGraphs%4), int(nKernels%6), omitContents)
		tgt := buildFuzzArtifact(rand.New(rand.NewSource(tgtSeed)), int(nAlloc%9)+1, int(nGraphs%4), int(nKernels%6), omitContents)
		tmpl, err := BuildTemplate("medusa/templates/fuzz", ref)
		if err != nil {
			t.Fatalf("template from valid artifact: %v", err)
		}
		delta, err := tgt.EncodeDelta(tmpl)
		if err != nil {
			t.Fatalf("delta-encoding valid artifact: %v", err)
		}
		resolve := func(id string) (*Template, bool) {
			if id == tmpl.ID() {
				return tmpl, true
			}
			return nil, false
		}
		decoded, err := DecodeResolved(delta, resolve)
		if err != nil {
			t.Fatalf("template-resolved decode: %v", err)
		}
		if !reflect.DeepEqual(tgt, decoded) {
			t.Fatalf("v3 round trip is lossy:\nencoded %+v\ndecoded %+v", tgt, decoded)
		}
		v2, err := tgt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		crossV2, err := decoded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2, crossV2) {
			t.Fatal("decode(v3) does not re-encode to the original v2 bytes")
		}
		reDelta, err := decoded.EncodeDelta(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(delta, reDelta) {
			t.Fatal("delta encoding is not canonical: re-encoding a resolved artifact differs")
		}
		// The template's own encoding must also be a fixed point.
		tmpl2, err := DecodeTemplate(tmpl.Encode())
		if err != nil {
			t.Fatalf("re-decoding an encoded template: %v", err)
		}
		if !bytes.Equal(tmpl.Encode(), tmpl2.Encode()) {
			t.Fatal("template encode → decode → encode is not a fixed point")
		}
	})
}

// FuzzDeltaCorrupted is FuzzDecodeCorrupted for v3 containers: flip one
// byte of a valid template+delta encoding (optionally truncate) and
// require the resolved decode to fail with a typed, section-localized
// error — never a panic, never a silently wrong artifact.
func FuzzDeltaCorrupted(f *testing.F) {
	f.Add(int64(1), uint32(20), uint8(0xff), uint16(0))
	f.Add(int64(2), uint32(0), uint8(1), uint16(0))
	f.Add(int64(3), uint32(5), uint8(0x80), uint16(4))
	f.Add(int64(4), uint32(1<<31), uint8(7), uint16(100))

	f.Fuzz(func(t *testing.T, seed int64, pos uint32, mask uint8, truncate uint16) {
		rng := rand.New(rand.NewSource(seed))
		ref := buildFuzzArtifact(rng, 3, 2, 2, false)
		tgt := buildFuzzArtifact(rng, 3, 2, 2, false)
		tmpl, err := BuildTemplate("medusa/templates/fuzz", ref)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := tgt.EncodeDelta(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if mask == 0 {
			mask = 1
		}
		idx := int(pos % uint32(len(raw)))
		mut := append([]byte(nil), raw...)
		mut[idx] ^= mask
		if truncate > 0 {
			mut = mut[:len(mut)-int(uint32(truncate)%uint32(len(mut)))]
		}
		resolve := func(id string) (*Template, bool) {
			if id == tmpl.ID() {
				return tmpl, true
			}
			return nil, false
		}
		decoded, err := DecodeResolved(mut, resolve)
		if err == nil {
			t.Fatalf("corrupting byte %d (mask %#x, truncate %d) decoded cleanly: %+v", idx, mask, truncate, decoded)
		}
		if truncate == 0 && idx >= 16 {
			// A body flip leaves the envelope parseable, so the failure
			// must be one of the typed template-path errors — a checksum
			// hit localized to a wire section, or (if the flip lands in
			// the template reference and dodges every CRC, which it
			// cannot) a missing/mismatched template.
			var corrupt *faults.ArtifactCorruptError
			if !errors.As(err, &corrupt) {
				t.Fatalf("body flip at %d surfaced %T (%v), want *faults.ArtifactCorruptError", idx, err, err)
			}
			if corrupt.Section == "" {
				t.Fatalf("corrupt error without a section: %v", corrupt)
			}
		}
	})
}

// FuzzDecodeResolved hardens the v3 decoder the way FuzzDecode hardens
// the v2 one: arbitrary bytes resolved against a fixed template never
// panic, a v3 input that decodes re-encodes through EncodeDelta to
// exactly its bytes, and every decoded artifact's Encode is a v2 fixed
// point. The seeds include the container whose header section claims
// alloc_seq's first 4 bytes, which must not decode.
func FuzzDecodeResolved(f *testing.F) {
	tmpl, _, sections, graphs := boundaryFixture(f)
	for seed := int64(1); seed <= 3; seed++ {
		art := buildFuzzArtifact(rand.New(rand.NewSource(seed)), 3, int(seed), 2, seed == 2)
		raw, err := art.EncodeDelta(tmpl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add(handDelta(tmpl, sections, graphs, -1))
	f.Add(shiftedHeaderDelta(tmpl, sections, graphs, -1))
	f.Add([]byte("MDSA"))
	resolve := resolverOf(tmpl)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeResolved(data, resolve)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if binary.LittleEndian.Uint32(data[4:8]) == DeltaFormatVersion {
			re, err := a.EncodeDelta(tmpl)
			if err != nil {
				t.Fatalf("decoded artifact fails to delta-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("EncodeDelta(DecodeResolved(p)) is %d bytes, p is %d: not a fixed point", len(re), len(data))
			}
		}
		v2, err := a.Encode()
		if err != nil {
			t.Fatalf("decoded artifact fails to encode: %v", err)
		}
		again, err := Decode(v2)
		if err != nil {
			t.Fatalf("v2 encoding fails to decode: %v", err)
		}
		if re, err := again.Encode(); err != nil || !bytes.Equal(re, v2) {
			t.Fatalf("v2 encode → decode → encode is not a fixed point (err %v)", err)
		}
	})
}

// FuzzDecodeTemplate hardens the template parser the way FuzzDecode
// hardens the artifact parser: arbitrary bytes never panic, and
// anything that decodes must re-encode canonically.
func FuzzDecodeTemplate(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	art := buildFuzzArtifact(rng, 3, 2, 2, false)
	tmpl, err := BuildTemplate("medusa/templates/fuzz", art)
	if err != nil {
		f.Fatal(err)
	}
	raw := tmpl.Encode()
	f.Add(raw)
	f.Add(raw[:16])
	f.Add([]byte("MDST"))
	f.Add([]byte{})
	f.Add(append([]byte(nil), raw[:len(raw)/2]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeTemplate(data)
		if err != nil {
			return
		}
		re := decoded.Encode()
		again, err := DecodeTemplate(re)
		if err != nil {
			t.Fatalf("re-encoded template fails to decode: %v", err)
		}
		if !bytes.Equal(re, again.Encode()) {
			t.Fatal("template encode → decode → encode is not a fixed point")
		}
	})
}

// FuzzArtifactRoundTrip is the structure-aware complement to FuzzDecode:
// it constructs valid artifacts from fuzzed shape parameters and
// asserts the wire format is lossless (decode returns a deeply equal
// artifact) and canonical (re-encoding is byte-identical). It also
// decodes a one-parameter artifact with a fuzzed image width
// (imageWidth mod 10) under checkImageWidth's rules.
func FuzzArtifactRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(4), false, uint8(4))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), true, uint8(8))
	f.Add(int64(3), uint8(7), uint8(3), uint8(1), true, uint8(4))
	f.Add(int64(-12345), uint8(1), uint8(1), uint8(9), false, uint8(8))
	f.Add(int64(4), uint8(2), uint8(1), uint8(2), false, uint8(0))
	f.Add(int64(5), uint8(2), uint8(1), uint8(2), true, uint8(9))

	f.Fuzz(func(t *testing.T, seed int64, nAlloc, nGraphs, nKernels uint8, omitContents bool, imageWidth uint8) {
		checkImageWidth(t, int(imageWidth%10))

		rng := rand.New(rand.NewSource(seed))
		art := buildFuzzArtifact(rng, int(nAlloc%9), int(nGraphs%4), int(nKernels%6), omitContents)
		raw, err := art.Encode()
		if err != nil {
			t.Fatalf("constructed artifact refuses to encode: %v", err)
		}
		checkExactSize(t, art, raw)
		decoded, err := Decode(raw)
		if err != nil {
			t.Fatalf("encoded artifact refuses to decode: %v", err)
		}
		if !reflect.DeepEqual(art, decoded) {
			t.Fatalf("wire format is lossy:\nencoded %+v\ndecoded %+v", art, decoded)
		}
		re, err := decoded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, re) {
			t.Fatal("re-encoding a decoded artifact is not byte-identical")
		}
	})
}
