package medusa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/medusa-repro/medusa/internal/faults"
)

// Template wire format (normative spec: docs/ARTIFACT_FORMAT.md):
//
//	"MDST" | u32 version | u32 bodyLen | u32 crc32(body) | body
//	body := str id | u8 sectionCount | sectionCount × blob(section)
//
// A template is the shared per-architecture half of the v3 artifact
// factoring: the section bodies of one reference artifact, with the
// graphs slot holding a single canonical graph body instead of the
// full 35-graph section. Foundry's observation (PAPERS.md) is that
// CUDA-graph contexts are largely template-shaped per architecture —
// sibling models share kernel names, topology and parameter layout,
// differing in dimension scalars and layer count — and the per-batch
// graphs of one model differ from each other almost only in batch
// scalars. One canonical graph is therefore enough source material:
// each model's first graph delta-encodes against it, and every further
// graph chains off the previously reconstructed one.

// templateMagic distinguishes template objects from artifacts.
var templateMagic = [4]byte{'M', 'D', 'S', 'T'}

// TemplateFormatVersion is the template wire version this build writes
// and the only one it resolves deltas against; a version skew surfaces
// as a typed *faults.TemplateMismatchError.
const TemplateFormatVersion = 1

// deltaSectionNames lists the v3 body sections in wire order: the
// template reference, then the six delta-encoded artifact sections.
var deltaSectionNames = [1 + numBodySections]string{
	"template_ref", "header", "alloc_seq", "graphs", "kernel_table", "permanent", "kv_record",
}

// TemplateResolver resolves a template ID to a decoded template, as
// DecodeResolved needs for v3 inputs. Implementations typically wrap a
// storage.Store or artifact registry (engine.StoreTemplates).
type TemplateResolver func(id string) (*Template, bool)

// Template is the shared per-architecture half of a template-factored
// artifact: immutable reference section bodies deltas resolve against.
// Build one per architecture with BuildTemplate, publish its Encode
// bytes once, and encode every sibling model with EncodeDelta.
type Template struct {
	id string
	// sections holds the reference body per artifact section, in wire
	// order; the graphs slot holds one canonical graph body.
	sections [numBodySections][]byte
	bodyCRC  uint32
	encoded  []byte
}

// BuildTemplate derives a template from a reference artifact of the
// architecture. The id is the template's registry identity (the
// convention is engine.TemplateKey's "medusa/templates/<arch>"); the
// artifact's sections become the delta sources, with the canonical
// graph chosen deterministically (most nodes, larger batch on ties).
func BuildTemplate(id string, a *Artifact) (*Template, error) {
	if id == "" {
		return nil, fmt.Errorf("medusa: template needs a non-empty id")
	}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to build template from inconsistent artifact: %w", err)
	}
	body, ends, graphEnds := a.bodySections()
	t := &Template{id: id} // seal copies the sections out of body
	start := 0
	for i, end := range ends {
		t.sections[i] = body[start:end]
		start = end
	}
	canonical := -1
	for i := range a.Graphs {
		g := &a.Graphs[i]
		if canonical < 0 ||
			len(g.Nodes) > len(a.Graphs[canonical].Nodes) ||
			(len(g.Nodes) == len(a.Graphs[canonical].Nodes) && g.Batch > a.Graphs[canonical].Batch) {
			canonical = i
		}
	}
	if canonical >= 0 {
		t.sections[2] = graphBody(body, ends[1], graphEnds, canonical)
	} else {
		t.sections[2] = []byte{}
	}
	t.seal()
	return t, nil
}

// seal computes the canonical encoding and body CRC from the sections,
// then points the sections at their copies inside the encoding, so a
// template holds exactly one buffer.
func (t *Template) seal() {
	w := newEnvelopeWriter()
	w.str(t.id)
	w.u8(numBodySections)
	var starts [numBodySections]int
	for i, s := range t.sections {
		w.bytes(s)
		starts[i] = len(w.buf) - len(s)
	}
	t.encoded = w.seal(templateMagic, TemplateFormatVersion)
	t.bodyCRC = binary.LittleEndian.Uint32(t.encoded[12:16])
	for i, s := range t.sections {
		end := starts[i] + len(s)
		t.sections[i] = t.encoded[starts[i]:end:end]
	}
}

// ID returns the template's registry identity.
func (t *Template) ID() string { return t.id }

// BodyCRC returns the checksum v3 artifacts pin their template by.
func (t *Template) BodyCRC() uint32 { return t.bodyCRC }

// Encode serializes the template. The encoding is canonical: for any
// template, Encode∘DecodeTemplate∘Encode is a byte-level fixed point.
func (t *Template) Encode() []byte {
	return append([]byte(nil), t.encoded...)
}

// SectionSizes attributes the template's encoded size to wire
// sections, mirroring Artifact.SectionSizes (the graphs entry covers
// the single canonical graph body).
func (t *Template) SectionSizes() []Section {
	out := []Section{{Name: "envelope", Bytes: 16}}
	idLen := uint64(4 + len(t.id) + 1) // str + sectionCount byte
	out = append(out, Section{Name: "template_id", Bytes: idLen})
	for i, s := range t.sections {
		out = append(out, Section{Name: bodySectionNames[i], Bytes: uint64(4 + len(s))})
	}
	return out
}

// DecodeTemplate parses a template object, verifying magic, version
// and the envelope checksum. Corruption surfaces as a typed
// *faults.ArtifactCorruptError (Section "template"); a foreign format
// version as a typed *faults.TemplateMismatchError. Never panics.
func DecodeTemplate(p []byte) (*Template, error) {
	if len(p) < 16 {
		return nil, fmt.Errorf("medusa: template of %d bytes is shorter than its header", len(p))
	}
	if !bytes.Equal(p[:4], templateMagic[:]) {
		return nil, fmt.Errorf("medusa: bad template magic %q", p[:4])
	}
	version := binary.LittleEndian.Uint32(p[4:8])
	if version != TemplateFormatVersion {
		return nil, &faults.TemplateMismatchError{
			Detail: fmt.Sprintf("template format v%d not supported (want v%d)", version, TemplateFormatVersion),
		}
	}
	bodyLen := binary.LittleEndian.Uint32(p[8:12])
	wantCRC := binary.LittleEndian.Uint32(p[12:16])
	if uint64(len(p)-16) != uint64(bodyLen) {
		return nil, fmt.Errorf("medusa: template body is %d bytes, header says %d", len(p)-16, bodyLen)
	}
	body := p[16:]
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, &faults.ArtifactCorruptError{
			Section: "template",
			Detail:  fmt.Sprintf("template checksum mismatch: %#x != %#x", got, wantCRC),
		}
	}
	r := &wireReader{p: body}
	t := &Template{id: r.str("template id")}
	if n := r.u8(); n != numBodySections && r.err == nil {
		r.fail("template lists %d sections, want %d", n, numBodySections)
	}
	for i := 0; i < numBodySections && r.err == nil; i++ {
		t.sections[i] = r.view(bodySectionNames[i]+" template section", 1<<26) // seal copies
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("medusa: %d trailing bytes after template body", len(body)-r.off)
	}
	t.seal()
	return t, nil
}

// EncodeDelta serializes the artifact as a v3 template+delta container
// against the given template: each section body is delta-encoded
// against the template's matching section, and graphs chain — the
// first graph deltas against the template's canonical graph, each
// subsequent graph against the previously encoded one. The output
// decodes back (DecodeResolved with the same template) to an artifact
// whose Encode is byte-identical to this artifact's v2 encoding.
func (a *Artifact) EncodeDelta(t *Template) ([]byte, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to encode inconsistent artifact: %w", err)
	}
	w := newEnvelopeWriter()
	if err := a.encodeDeltaBody(t, &w, func(string) {}); err != nil {
		return nil, err
	}
	return w.seal(wireMagic, DeltaFormatVersion), nil
}

// DeltaSectionSizes attributes an EncodeDelta encoding to wire
// sections, in wire order and summing exactly to len(EncodeDelta()).
// medusa-inspect divides Artifact.SectionSizes by these to report
// per-section sharing ratios.
func (a *Artifact) DeltaSectionSizes(t *Template) ([]Section, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to size inconsistent artifact: %w", err)
	}
	var w wireWriter
	out := []Section{{Name: "envelope", Bytes: 16}}
	last := 0
	err := a.encodeDeltaBody(t, &w, func(section string) {
		out = append(out, Section{Name: section, Bytes: uint64(len(w.buf) - last)})
		last = len(w.buf)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encodeDeltaBody writes the v3 body — template_ref, six delta
// sections, checksum trailer — calling mark after each wire section
// (and once more for the trailer, "section_crcs") so EncodeDelta and
// DeltaSectionSizes share one format walk, exactly as encodeBody does
// for v2.
func (a *Artifact) encodeDeltaBody(t *Template, w *wireWriter, mark func(section string)) error {
	if t == nil {
		return fmt.Errorf("medusa: EncodeDelta needs a template")
	}
	body, ends, graphEnds := a.bodySections()

	var crcs [len(deltaSectionNames)]uint32
	sec := 0
	lastW := len(w.buf)
	endSection := func(name string) {
		crcs[sec] = crc32.ChecksumIEEE(w.buf[lastW:])
		sec++
		lastW = len(w.buf)
		mark(name)
	}

	w.str(t.id)
	w.u32(t.bodyCRC)
	endSection("template_ref")

	var enc deltaEncoder
	start := 0
	for i, name := range bodySectionNames {
		raw := body[start:ends[i]]
		w.u32(uint32(len(raw)))
		w.u32(crc32.ChecksumIEEE(raw))
		if name == "graphs" {
			w.u32(uint32(len(graphEnds)))
			src := t.sections[2]
			for gi := range graphEnds {
				gb := graphBody(body, start, graphEnds, gi)
				w.u32(uint32(len(gb)))
				w.delta(&enc, src, gb)
				src = gb
			}
		} else {
			w.delta(&enc, t.sections[i], raw)
		}
		start = ends[i]
		endSection(name)
	}

	w.u8(uint8(len(crcs)))
	for _, c := range crcs {
		w.u32(c)
	}
	mark("section_crcs")
	return nil
}

// bodySections encodes the artifact body once and returns it with each
// section's end offset and each graph's end offset: the split
// BuildTemplate and the v3 encoder cut sections and graph bodies from.
func (a *Artifact) bodySections() (body []byte, ends [numBodySections]int, graphEnds []int) {
	var w wireWriter
	graphEnds = make([]int, len(a.Graphs))
	sec := 0
	a.encodeBody(&w, func(string) {
		ends[sec] = len(w.buf)
		sec++
	}, graphEnds)
	return w.buf, ends, graphEnds
}

// graphBody returns graph gi's encoding out of a bodySections body:
// the graphs section starts at sectionStart with its u32 count, and
// graphEnds holds each graph's end offset.
func graphBody(body []byte, sectionStart int, graphEnds []int, gi int) []byte {
	start := sectionStart + 4
	if gi > 0 {
		start = graphEnds[gi-1]
	}
	return body[start:graphEnds[gi]:graphEnds[gi]]
}

// delta writes the delta rewriting tgt in terms of src as a blob,
// encoding it straight into the buffer behind a back-patched length.
func (w *wireWriter) delta(e *deltaEncoder, src, tgt []byte) {
	at := len(w.buf)
	w.u32(0)
	w.buf = e.appendDelta(w.buf, src, tgt)
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
}

// deltaWire is the parsed (not yet resolved) structure of a v3 body.
type deltaWire struct {
	templateID  string
	templateCRC uint32
	rawLen      [numBodySections]uint32
	rawCRC      [numBodySections]uint32
	graphLens   []uint32
	graphDeltas [][]byte
	deltas      [numBodySections][]byte // nil for graphs
	ends        [len(deltaSectionNames)]int
	crcs        [len(deltaSectionNames)]uint32
}

// parseDeltaBody structurally decodes a v3 body without applying
// deltas or verifying checksums — the shared walk behind
// decodeDeltaBody and corruptDeltaError.
func parseDeltaBody(body []byte) (*deltaWire, error) {
	d := &deltaWire{}
	r := &wireReader{p: body}
	sec := 0
	endSection := func() {
		if r.err == nil && sec < len(d.ends) {
			d.ends[sec] = r.off
			sec++
		}
	}
	d.templateID = r.str("template id")
	d.templateCRC = r.u32()
	endSection()
	for i, name := range bodySectionNames {
		d.rawLen[i] = r.u32()
		if d.rawLen[i] > 1<<28 {
			r.fail("%s section of %d resolved bytes exceeds limit", name, d.rawLen[i])
		}
		d.rawCRC[i] = r.u32()
		if name == "graphs" {
			nGraphs := r.u32()
			if nGraphs > 1<<16 {
				r.fail("%d graph deltas", nGraphs)
			}
			if nGraphs > 0 && r.err == nil {
				d.graphLens = make([]uint32, 0, r.capFor(nGraphs, 8))
				d.graphDeltas = make([][]byte, 0, cap(d.graphLens))
			}
			for gi := uint32(0); gi < nGraphs && r.err == nil; gi++ {
				gLen := r.u32()
				if gLen > 1<<26 {
					r.fail("graph of %d resolved bytes exceeds limit", gLen)
				}
				d.graphLens = append(d.graphLens, gLen)
				d.graphDeltas = append(d.graphDeltas, r.view("graph delta", 1<<26))
			}
		} else {
			d.deltas[i] = r.view(name+" delta", 1<<26)
		}
		endSection()
	}
	if n := r.u8(); n != uint8(len(deltaSectionNames)) && r.err == nil {
		r.fail("checksum trailer lists %d sections, want %d", n, len(deltaSectionNames))
	}
	for i := range d.crcs {
		d.crcs[i] = r.u32()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("medusa: %d trailing bytes after artifact body", len(body)-r.off)
	}
	return d, nil
}

// verifyDeltaSectionCRCs mirrors verifySectionCRCs for the v3 layout.
func verifyDeltaSectionCRCs(body []byte, d *deltaWire) (string, bool) {
	start := 0
	for i, end := range d.ends {
		if crc32.ChecksumIEEE(body[start:end]) != d.crcs[i] {
			return deltaSectionNames[i], false
		}
		start = end
	}
	return "", true
}

// corruptDeltaError localizes envelope-checksum damage in a v3 body to
// the first wire section whose trailer CRC mismatches, falling back to
// "body" when the structure is unparseable.
func corruptDeltaError(body []byte, detail string) error {
	section := "body"
	if d, err := parseDeltaBody(body); err == nil {
		if bad, ok := verifyDeltaSectionCRCs(body, d); !ok {
			section = bad
		}
	}
	return &faults.ArtifactCorruptError{Section: section, Detail: detail}
}

// decodeDeltaBody resolves a (envelope-verified) v3 body into an
// artifact: structural parse, per-section trailer verification,
// template resolution with the typed missing/mismatch errors, delta
// application with resolved-section checksum verification, and finally
// the ordinary v2 body parse plus semantic validation over the
// reconstructed bytes.
func decodeDeltaBody(body []byte, resolve TemplateResolver) (*Artifact, error) {
	d, err := parseDeltaBody(body)
	if err != nil {
		return nil, err
	}
	if section, ok := verifyDeltaSectionCRCs(body, d); !ok {
		return nil, &faults.ArtifactCorruptError{Section: section, Detail: "section checksum mismatch"}
	}
	if resolve == nil {
		return nil, &faults.TemplateMissingError{Template: d.templateID}
	}
	t, ok := resolve(d.templateID)
	if !ok || t == nil {
		return nil, &faults.TemplateMissingError{Template: d.templateID}
	}
	if t.bodyCRC != d.templateCRC {
		return nil, &faults.TemplateMismatchError{
			Template: d.templateID,
			Detail:   fmt.Sprintf("template body CRC %#x, artifact pinned %#x", t.bodyCRC, d.templateCRC),
		}
	}

	// Resolve every section straight into one v2 body buffer, sized
	// from the declared lengths up to the limit one section may claim.
	total := 1 + 4*numBodySections
	for _, n := range d.rawLen {
		total += int(n)
	}
	resolved := wireWriter{buf: make([]byte, 0, min(total, 1<<28))}
	lastR := 0
	for i, name := range bodySectionNames {
		if name == "graphs" {
			resolved.u32(uint32(len(d.graphDeltas)))
			src := t.sections[2]
			for gi, gd := range d.graphDeltas {
				at := len(resolved.buf)
				out, err := deltaApply(resolved.buf, src, gd, int(d.graphLens[gi]))
				if err == nil && len(out)-at != int(d.graphLens[gi]) {
					err = fmt.Errorf("resolved %d bytes, want %d", len(out)-at, d.graphLens[gi])
				}
				if err != nil {
					return nil, &faults.ArtifactCorruptError{
						Section: "graphs",
						Detail:  fmt.Sprintf("graph %d delta: %v", gi, err),
					}
				}
				resolved.buf, src = out, out[at:]
			}
		} else {
			out, err := deltaApply(resolved.buf, t.sections[i], d.deltas[i], int(d.rawLen[i]))
			if err != nil {
				return nil, &faults.ArtifactCorruptError{
					Section: name,
					Detail:  fmt.Sprintf("section delta: %v", err),
				}
			}
			resolved.buf = out
		}
		sec := resolved.buf[lastR:]
		if len(sec) != int(d.rawLen[i]) {
			return nil, &faults.ArtifactCorruptError{
				Section: name,
				Detail:  fmt.Sprintf("resolved %d bytes, want %d", len(sec), d.rawLen[i]),
			}
		}
		if got := crc32.ChecksumIEEE(sec); got != d.rawCRC[i] {
			return nil, &faults.ArtifactCorruptError{
				Section: name,
				Detail:  fmt.Sprintf("resolved section checksum mismatch: %#x != %#x", got, d.rawCRC[i]),
			}
		}
		lastR = len(resolved.buf)
	}
	// Append the v2 trailer the resolved sections imply and reuse the
	// ordinary parser — the reconstruction is bit-exact v2 by design.
	resolved.u8(numBodySections)
	for i := range bodySectionNames {
		resolved.u32(d.rawCRC[i])
	}
	a, _, _, err := parseBody(resolved.buf, true)
	if err != nil {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// TemplateRef peeks a v3 container's template reference without
// decoding it: the template ID and the pinned template body CRC.
// ok is false for self-contained (v1/v2) artifacts and anything
// structurally unreadable — callers then need no template.
func TemplateRef(p []byte) (id string, bodyCRC uint32, ok bool) {
	if len(p) < 16 || !bytes.Equal(p[:4], wireMagic[:]) {
		return "", 0, false
	}
	if binary.LittleEndian.Uint32(p[4:8]) != DeltaFormatVersion {
		return "", 0, false
	}
	r := &wireReader{p: p[16:]}
	id = r.str("template id")
	bodyCRC = r.u32()
	if r.err != nil {
		return "", 0, false
	}
	return id, bodyCRC, true
}
