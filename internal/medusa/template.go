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
// Each section, and the canonical graph, is encoded straight into the
// template's encoding, which its sections then point into.
func BuildTemplate(id string, a *Artifact) (*Template, error) {
	if id == "" {
		return nil, fmt.Errorf("medusa: template needs a non-empty id")
	}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to build template from inconsistent artifact: %w", err)
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
	// The envelope, id and section count, then each small section and
	// the canonical graph behind its length.
	size := envelopeLen + 4 + len(id) + 1 + 4*numBodySections
	for i := range numBodySections {
		if i != secGraphs {
			size += a.sectionLen(i)
		} else if canonical >= 0 {
			size += graphLen(&a.Graphs[canonical])
		}
	}
	b := make([]byte, envelopeLen, size)
	b = appendStr(b, id)
	b = append(b, numBodySections)
	var starts [numBodySections]int
	for i := range starts {
		at := len(b)
		b = appendU32(b, 0)
		switch {
		case i != secGraphs:
			b = a.appendSection(b, i)
		case canonical >= 0:
			b = appendGraph(b, &a.Graphs[canonical])
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
		starts[i] = at + 4
	}
	t := &Template{id: id, encoded: seal(b, templateMagic, TemplateFormatVersion)}
	t.bodyCRC = binary.LittleEndian.Uint32(t.encoded[12:16])
	for i, start := range starts {
		end := start + int(binary.LittleEndian.Uint32(t.encoded[start-4:]))
		t.sections[i] = t.encoded[start:end:end]
	}
	return t, nil
}

// ID returns the template's registry identity.
func (t *Template) ID() string { return t.id }

// Encode serializes the template. The encoding is canonical: for any
// template, Encode∘DecodeTemplate∘Encode is a byte-level fixed point.
func (t *Template) Encode() []byte {
	return append([]byte(nil), t.encoded...)
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
	// A template that parses re-encodes to exactly these bytes, so it
	// keeps a copy of them as its encoding, its sections pointing in.
	enc := bytes.Clone(p)
	r := &wireReader{p: enc[envelopeLen:]}
	t := &Template{id: r.str("template id"), encoded: enc, bodyCRC: wantCRC}
	if n := r.u8(); n != numBodySections && r.err == nil {
		r.fail("template lists %d sections, want %d", n, numBodySections)
	}
	for i := 0; i < numBodySections && r.err == nil; i++ {
		s := r.view(bodySectionNames[i]+" template section", 1<<26)
		t.sections[i] = s[:len(s):len(s)]
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("medusa: %d trailing bytes after template body", len(body)-r.off)
	}
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
	if t == nil {
		return nil, fmt.Errorf("medusa: EncodeDelta needs a template")
	}
	// A container's size is known only once its deltas are written; it
	// starts at one graph's worth (the template's).
	b := make([]byte, envelopeLen, envelopeLen+len(t.sections[secGraphs]))
	b, err := a.appendDeltaBody(b, t, func(string, int) {})
	if err != nil {
		return nil, err
	}
	return seal(b, wireMagic, DeltaFormatVersion), nil
}

// DeltaSectionSizes attributes an EncodeDelta encoding to wire
// sections, in wire order and summing exactly to len(EncodeDelta()).
// medusa-inspect divides Artifact.SectionSizes by these to report
// per-section sharing ratios.
func (a *Artifact) DeltaSectionSizes(t *Template) ([]Section, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to size inconsistent artifact: %w", err)
	}
	if t == nil {
		return nil, fmt.Errorf("medusa: EncodeDelta needs a template")
	}
	out := []Section{{Name: "envelope", Bytes: envelopeLen}}
	last := 0
	_, err := a.appendDeltaBody(nil, t, func(section string, end int) {
		out = append(out, Section{Name: section, Bytes: uint64(end - last)})
		last = end
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendDeltaBody appends the v3 body — template_ref, six delta
// sections, checksum trailer — calling mark with each wire section's
// end offset in b (and once more for the trailer, "section_crcs"), so
// EncodeDelta and DeltaSectionSizes share one format walk.
//
// It encodes one section, and one graph, at a time: each small section
// into one scratch buffer, the graphs alternately into two, so graph i
// deltas against graph i−1 while it is still intact. No whole v2 body
// is ever built.
func (a *Artifact) appendDeltaBody(b []byte, t *Template, mark func(section string, end int)) ([]byte, error) {
	var crcs [len(deltaSectionNames)]uint32
	sec, last := 0, len(b)
	endSection := func(name string) {
		crcs[sec] = crc32.ChecksumIEEE(b[last:])
		sec++
		last = len(b)
		mark(name, last)
	}

	b = appendStr(b, t.id)
	b = appendU32(b, t.bodyCRC)
	endSection("template_ref")

	// The scratch buffers hold exactly this artifact's longest small
	// section and its longest graph.
	small, graph := 0, 0
	for i := range numBodySections {
		if i != secGraphs {
			small = max(small, a.sectionLen(i))
		}
	}
	for i := range a.Graphs {
		graph = max(graph, graphLen(&a.Graphs[i]))
	}
	scratch, graphs := scratchBuffers(small, graph, len(a.Graphs))

	var enc deltaEncoder
	for i, name := range bodySectionNames {
		if i != secGraphs {
			scratch = a.appendSection(scratch[:0], i)
			b = appendU32(b, uint32(len(scratch)))
			b = appendU32(b, crc32.ChecksumIEEE(scratch))
			b = appendDeltaBlob(b, &enc, t.sections[i], scratch)
			endSection(name)
			continue
		}
		// The graphs section's resolved length and checksum cover its
		// count and every graph: back-patched once the chain is written.
		at := len(b)
		b = appendU32(appendU32(b, 0), 0)
		b = appendU32(b, uint32(len(a.Graphs)))
		scratch = appendU32(scratch[:0], uint32(len(a.Graphs)))
		rawLen, rawCRC := len(scratch), crc32.ChecksumIEEE(scratch)
		src := t.sections[secGraphs]
		for gi := range a.Graphs {
			g := appendGraph(graphs[gi%2][:0], &a.Graphs[gi])
			b = appendU32(b, uint32(len(g)))
			b = appendDeltaBlob(b, &enc, src, g)
			rawLen += len(g)
			rawCRC = crc32.Update(rawCRC, crc32.IEEETable, g)
			src = g
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(rawLen))
		binary.LittleEndian.PutUint32(b[at+4:], rawCRC)
		endSection(name)
	}

	b = append(b, uint8(len(crcs)))
	for _, c := range crcs {
		b = appendU32(b, c)
	}
	mark("section_crcs", len(b))
	return b, nil
}

// scratchBuffers carves one allocation into the empty buffers the v3
// codec streams through: a scratch of capacity small for one section,
// and, for a chain of nGraphs graphs, up to two of capacity graph that
// the chain alternates between. Each is capped at its own capacity, so
// appending past it reallocates that buffer alone.
func scratchBuffers(small, graph, nGraphs int) (scratch []byte, graphs [2][]byte) {
	nGraphs = min(nGraphs, 2)
	buf := make([]byte, small+nGraphs*graph)
	for i := range nGraphs {
		at := small + i*graph
		graphs[i] = buf[at : at : at+graph]
	}
	return buf[:0:small], graphs
}

// appendDeltaBlob appends the delta rewriting tgt in terms of src as a
// blob, encoding it straight into b behind a back-patched length.
func appendDeltaBlob(b []byte, e *deltaEncoder, src, tgt []byte) []byte {
	at := len(b)
	b = e.appendDelta(appendU32(b, 0), src, tgt)
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
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
		if i == secGraphs {
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
// template resolution with the typed missing/mismatch errors, then,
// section by section and graph by graph, delta application with
// resolved-length and checksum verification and the v2 parse step of
// what was resolved, and finally semantic validation.
//
// Each section, and each graph, must parse to exactly its declared
// length; one that does not is a typed corruption error naming its
// section. Every delta, length or checksum failure wins over such a
// parse error: the first parse error is held until every section has
// resolved.
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

	// The scratch each small section resolves into and the buffers the
	// graph chain alternates between are sized by the largest length the
	// container declares for them.
	small, graph := 0, 0
	for i, n := range d.rawLen {
		if i != secGraphs {
			small = max(small, int(n))
		}
	}
	for _, n := range d.graphLens {
		graph = max(graph, int(n))
	}
	scratch, graphs := scratchBuffers(small, graph, len(d.graphLens))

	a := newDecodedArtifact()
	names := make(map[string]string)
	var parseErr error
	for i, name := range bodySectionNames {
		if i != secGraphs {
			sec, err := deltaApply(scratch, t.sections[i], d.deltas[i], int(d.rawLen[i]))
			if err != nil {
				return nil, &faults.ArtifactCorruptError{
					Section: name,
					Detail:  fmt.Sprintf("section delta: %v", err),
				}
			}
			if err := checkResolved(name, len(sec), crc32.ChecksumIEEE(sec), d.rawLen[i], d.rawCRC[i]); err != nil {
				return nil, err
			}
			if parseErr == nil {
				r := wireReader{p: sec}
				a.parseSection(&r, i, names)
				parseErr = r.exact(name, -1)
			}
			continue
		}
		if n := len(d.graphLens); n > 0 {
			a.Graphs = make([]GraphRecord, 0, n)
		}
		count := binary.LittleEndian.AppendUint32(scratch, uint32(len(d.graphLens)))
		rawLen, rawCRC := len(count), crc32.ChecksumIEEE(count)
		src, prev := t.sections[secGraphs], []NodeRecord(nil)
		for gi, gd := range d.graphLens {
			g, err := deltaApply(graphs[gi%2], src, d.graphDeltas[gi], int(gd))
			if err == nil && len(g) != int(gd) {
				err = fmt.Errorf("resolved %d bytes, want %d", len(g), gd)
			}
			if err != nil {
				return nil, &faults.ArtifactCorruptError{
					Section: name,
					Detail:  fmt.Sprintf("graph %d delta: %v", gi, err),
				}
			}
			rawLen += len(g)
			rawCRC = crc32.Update(rawCRC, crc32.IEEETable, g)
			if parseErr == nil {
				r := wireReader{p: g}
				pg := parseGraph(&r, names, prev)
				a.Graphs, prev = append(a.Graphs, pg), pg.Nodes
				parseErr = r.exact(name, gi)
			}
			src = g
		}
		if err := checkResolved(name, rawLen, rawCRC, d.rawLen[i], d.rawCRC[i]); err != nil {
			return nil, err
		}
	}
	if parseErr != nil {
		return nil, parseErr
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// checkResolved compares a resolved section's length and checksum with
// the ones its v3 section declares.
func checkResolved(section string, n int, crc, wantLen, wantCRC uint32) error {
	if n != int(wantLen) {
		return &faults.ArtifactCorruptError{
			Section: section,
			Detail:  fmt.Sprintf("resolved %d bytes, want %d", n, wantLen),
		}
	}
	if crc != wantCRC {
		return &faults.ArtifactCorruptError{
			Section: section,
			Detail:  fmt.Sprintf("resolved section checksum mismatch: %#x != %#x", crc, wantCRC),
		}
	}
	return nil
}

// exact returns the typed corruption error for a resolved v3 section,
// or for its graph gi when gi ≥ 0, that r did not parse to exactly its
// bytes: a parse failure, or bytes left over.
func (r *wireReader) exact(section string, gi int) error {
	if r.err == nil && r.off != len(r.p) {
		r.fail("parses to %d of its %d bytes", r.off, len(r.p))
	}
	if r.err == nil {
		return nil
	}
	detail := r.err.Error()
	if gi >= 0 {
		detail = fmt.Sprintf("graph %d: %s", gi, detail)
	}
	return &faults.ArtifactCorruptError{Section: section, Detail: detail}
}
