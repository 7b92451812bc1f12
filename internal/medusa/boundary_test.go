package medusa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"github.com/medusa-repro/medusa/internal/faults"
)

// resolvedSections returns a's resolved v3 sections, cut out of its v2
// encoding by SectionSizes, and its graph bodies, one appendGraph each.
func resolvedSections(t testing.TB, a *Artifact) (sections [numBodySections][]byte, graphs [][]byte) {
	t.Helper()
	raw, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := a.SectionSizes()
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, s := range sizes {
		for i, name := range bodySectionNames {
			if s.Name == name {
				sections[i] = raw[off : off+int(s.Bytes)]
			}
		}
		off += int(s.Bytes)
	}
	for gi := range a.Graphs {
		graphs = append(graphs, appendGraph(nil, &a.Graphs[gi]))
	}
	return sections, graphs
}

// handDelta writes a v3 container by hand from resolved section bytes
// and graph bodies (sections[secGraphs] is ignored), delta-encoding
// each against tmpl as docs/ARTIFACT_FORMAT.md §5 lays out. It is an
// independent writer for containers EncodeDelta never produces: the
// declared boundaries are whatever the caller cuts, and badCRC (when
// ≥ 0) names a section whose rawCRC is written wrong. Every wire
// checksum is valid.
func handDelta(tmpl *Template, sections [numBodySections][]byte, graphs [][]byte, badCRC int) []byte {
	b := make([]byte, envelopeLen)
	var crcs []uint32
	last := len(b)
	mark := func() {
		crcs = append(crcs, crc32.ChecksumIEEE(b[last:]))
		last = len(b)
	}
	b = appendU32(appendStr(b, tmpl.ID()), tmpl.BodyCRC())
	mark()
	var enc deltaEncoder
	for i := range sections {
		raw := sections[i]
		if i == secGraphs {
			raw = binary.LittleEndian.AppendUint32(nil, uint32(len(graphs)))
			for _, g := range graphs {
				raw = append(raw, g...)
			}
		}
		crc := crc32.ChecksumIEEE(raw)
		if i == badCRC {
			crc ^= 1
		}
		b = appendU32(appendU32(b, uint32(len(raw))), crc)
		if i == secGraphs {
			b = appendU32(b, uint32(len(graphs)))
			src := tmpl.sections[secGraphs]
			for _, g := range graphs {
				b = appendDeltaBlob(appendU32(b, uint32(len(g))), &enc, src, g)
				src = g
			}
		} else {
			b = appendDeltaBlob(b, &enc, tmpl.sections[i], raw)
		}
		mark()
	}
	b = append(b, uint8(len(crcs)))
	for _, c := range crcs {
		b = appendU32(b, c)
	}
	return seal(b, wireMagic, DeltaFormatVersion)
}

// boundaryFixture returns a template and an artifact with two graphs
// and a non-empty allocation sequence, plus the artifact's resolved
// sections and graph bodies.
func boundaryFixture(t testing.TB) (*Template, *Artifact, [numBodySections][]byte, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ref := buildFuzzArtifact(rng, 3, 2, 2, false)
	tgt := buildFuzzArtifact(rng, 3, 2, 2, false)
	tmpl, err := BuildTemplate("medusa/templates/fuzz", ref)
	if err != nil {
		t.Fatal(err)
	}
	sections, graphs := resolvedSections(t, tgt)
	return tmpl, tgt, sections, graphs
}

func resolverOf(tmpl *Template) TemplateResolver {
	return func(id string) (*Template, bool) { return tmpl, id == tmpl.ID() }
}

// TestHandDeltaMatchesEncodeDelta checks the streaming encoder against
// handDelta, which delta-encodes sections cut from the v2 encoding:
// the same bytes, back-patched graphs length and checksum included.
func TestHandDeltaMatchesEncodeDelta(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := buildFuzzArtifact(rng, rng.Intn(9), rng.Intn(5), rng.Intn(4), seed%2 == 0)
		tgt := buildFuzzArtifact(rng, rng.Intn(9), rng.Intn(5), rng.Intn(4), seed%3 == 0)
		tmpl, err := BuildTemplate("medusa/templates/fuzz", ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tgt.EncodeDelta(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		sections, graphs := resolvedSections(t, tgt)
		if want := handDelta(tmpl, sections, graphs, -1); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: EncodeDelta differs from the hand-written container (%d vs %d bytes)", seed, len(got), len(want))
		}
	}
}

// shiftedHeaderDelta is the container whose header section declares
// the first 4 bytes of alloc_seq (its event count) as its own. Every
// checksum is valid, and the concatenated body is the artifact's.
func shiftedHeaderDelta(tmpl *Template, sections [numBodySections][]byte, graphs [][]byte, badCRC int) []byte {
	shifted := sections
	shifted[secHeader] = append(append([]byte(nil), sections[secHeader]...), sections[secAllocSeq][:4]...)
	shifted[secAllocSeq] = sections[secAllocSeq][4:]
	return handDelta(tmpl, shifted, graphs, badCRC)
}

// TestDeltaSectionBoundariesEnforced: each resolved section, and each
// graph, must parse to exactly its declared length. Containers that
// move bytes across a boundary, with every checksum valid, fail with a
// typed corruption error naming the section where the parse went
// wrong, whether it left bytes over or ran out of them.
func TestDeltaSectionBoundariesEnforced(t *testing.T) {
	tmpl, tgt, sections, graphs := boundaryFixture(t)
	if len(graphs) != 2 || len(sections[secAllocSeq]) < 4 || len(sections[secPermanent]) < 4 {
		t.Fatalf("fixture has %d graphs, alloc_seq %d bytes, permanent %d bytes",
			len(graphs), len(sections[secAllocSeq]), len(sections[secPermanent]))
	}
	if back, err := DecodeResolved(handDelta(tmpl, sections, graphs, -1), resolverOf(tmpl)); err != nil {
		t.Fatalf("unshifted container: %v", err)
	} else if back.ModelName != tgt.ModelName {
		t.Fatalf("unshifted container decoded as %q", back.ModelName)
	}

	shiftedGraphs := [][]byte{
		append(append([]byte(nil), graphs[0]...), graphs[1][:4]...),
		graphs[1][4:],
	}
	shortPermanent := sections
	n := len(sections[secPermanent])
	shortPermanent[secPermanent] = sections[secPermanent][:n-4]
	shortPermanent[secKVRecord] = append(append([]byte(nil), sections[secPermanent][n-4:]...), sections[secKVRecord]...)
	cases := []struct {
		what, section, detail string
		wire                  []byte
	}{
		{"header takes alloc_seq's count", "header", "parses to", shiftedHeaderDelta(tmpl, sections, graphs, -1)},
		{"graph 0 takes graph 1's batch", "graphs", "graph 0: ", handDelta(tmpl, sections, shiftedGraphs, -1)},
		{"permanent gives its tail to kv_record", "permanent", "truncated", handDelta(tmpl, shortPermanent, graphs, -1)},
	}
	for _, c := range cases {
		_, err := DecodeResolved(c.wire, resolverOf(tmpl))
		var corrupt *faults.ArtifactCorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("%s: DecodeResolved = %v, want *faults.ArtifactCorruptError", c.what, err)
		}
		if corrupt.Section != c.section || !strings.Contains(corrupt.Detail, c.detail) {
			t.Fatalf("%s: error %v, want section %q with %q in the detail", c.what, err, c.section, c.detail)
		}
	}
}

// TestDeltaResolveErrorsWinOverParseErrors: a section that fails to
// resolve is reported even when an earlier section has already failed
// to parse, so resolution errors keep their precedence over parse
// errors.
func TestDeltaResolveErrorsWinOverParseErrors(t *testing.T) {
	tmpl, _, sections, graphs := boundaryFixture(t)
	for _, bad := range []int{secGraphs, secKVRecord} {
		_, err := DecodeResolved(shiftedHeaderDelta(tmpl, sections, graphs, bad), resolverOf(tmpl))
		var corrupt *faults.ArtifactCorruptError
		if !errors.As(err, &corrupt) || corrupt.Section != bodySectionNames[bad] ||
			!strings.Contains(corrupt.Detail, "resolved section checksum mismatch") {
			t.Fatalf("bad %s rawCRC behind a header parse error: got %v, want that section's checksum error",
				bodySectionNames[bad], err)
		}
	}
}
