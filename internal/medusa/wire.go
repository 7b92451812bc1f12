package medusa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/medusa-repro/medusa/internal/faults"
)

// Artifact wire format (normative spec: docs/ARTIFACT_FORMAT.md):
//
//	"MDSA" | u32 version | u32 bodyLen | u32 crc32(body) | body
//
// For the self-contained version (v2) the body is a flat little-endian
// encoding of the artifact's six sections, followed by a checksum
// trailer:
//
//	header | alloc_seq | graphs | kernel_table | permanent | kv_record
//	| u8 sectionCount | sectionCount × u32 crc32(section)
//
// v3 (template.go) replaces the section payloads with deltas against a
// shared per-architecture template, prefixed by a template_ref section
// and covered by the same per-section trailer scheme.
//
// The envelope CRC guards against torn or corrupted artifact files:
// restoring from a damaged artifact must fail loudly, never silently
// build wrong graphs. The per-section trailer lets the decoder name
// the first damaged section, so a corrupt restore surfaces a
// *faults.ArtifactCorruptError pinpointing what was lost rather than
// an opaque checksum failure.
var wireMagic = [4]byte{'M', 'D', 'S', 'A'}

// Body section indices, in wire order; numBodySections is the fixed
// count of checksummed body sections.
const (
	secHeader = iota
	secAllocSeq
	secGraphs
	secKernelTable
	secPermanent
	secKVRecord
	numBodySections
)

// bodySectionNames lists the checksummed body sections in wire order.
var bodySectionNames = [numBodySections]string{
	"header", "alloc_seq", "graphs", "kernel_table", "permanent", "kv_record",
}

// envelopeLen is the size of the "magic | u32 version | u32 bodyLen |
// u32 crc32(body)" envelope that fronts artifacts and templates.
const envelopeLen = 16

// trailerLen is the size of the v2 per-section checksum trailer.
const trailerLen = 1 + 4*numBodySections

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBlob(b, p []byte) []byte       { return append(appendU32(b, uint32(len(p))), p...) }
func appendStr(b []byte, s string) []byte { return append(appendU32(b, uint32(len(s))), s...) }

// seal fills in the envelope reserved at the front of b (its first
// envelopeLen bytes) for the body that follows, and returns b.
func seal(b []byte, magic [4]byte, version uint32) []byte {
	body := b[envelopeLen:]
	copy(b, magic[:])
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(body))
	return b
}

type wireReader struct {
	p   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = decodeError(format, args...)
	}
}

// decodeError is the error of a structurally invalid encoding.
func decodeError(format string, args ...any) error {
	return fmt.Errorf("medusa: artifact decode: "+format, args...)
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.p) {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	out := r.p[r.off : r.off+n]
	r.off += n
	return out
}

func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) boolean() bool { return r.u8() != 0 }

// view reads a length-prefixed byte string without copying it out of
// the input; callers that keep it past the decode use blob.
func (r *wireReader) view(what string, limit uint32) []byte {
	n := r.u32()
	if n > limit {
		r.fail("%s of %d bytes exceeds limit %d", what, n, limit)
		return nil
	}
	return r.take(int(n))
}

func (r *wireReader) blob(what string, limit uint32) []byte {
	b := r.view(what, limit)
	if b == nil {
		return nil
	}
	// append to a non-nil empty slice: a present-but-empty blob must
	// decode non-nil, or re-encoding would drop its presence bit and
	// break the encode→decode→encode fixed point.
	return append([]byte{}, b...)
}

func (r *wireReader) str(what string) string { return string(r.view(what, maxNameLen)) }

// capFor bounds a decoded element count by the bytes left in the
// input, given each element's minimum wire size, so pre-sizing from a
// corrupt count cannot allocate more than the input could describe.
func (r *wireReader) capFor(n uint32, minWire int) int {
	if left := (len(r.p) - r.off) / minWire; left < int(n) {
		return left
	}
	return int(n)
}

// graphScan is scanGraph's account of one graph: its complete nodes,
// their deps and params, where it ended, and the field-by-field read's
// error (message and offset) if it stopped short of the node count.
type graphScan struct {
	nodes, deps, params, end int
	err                      error
}

// scanGraph bounds-checks the node encodings of one graph, starting at
// offset off of p, field by field and without allocating. It stops at
// the first truncated or out-of-limit field, so the slabs its counts
// size never exceed what the input could describe, and parseGraph reads
// every node it passed with no check of its own.
func scanGraph(p []byte, off int, nNodes uint32) (s graphScan) {
	need := 0 // the width of the field that did not fit
	field := func(n int) bool {
		if len(p)-off < n {
			need = n
			return false
		}
		off += n
		return true
	}
	u32 := func() (uint32, bool) {
		if !field(4) {
			return 0, false
		}
		return binary.LittleEndian.Uint32(p[off-4:]), true
	}
	over := func(format string, args ...any) graphScan {
		s.end, s.err = off, decodeError(format, args...)
		return s
	}
nodes:
	for s.nodes < int(nNodes) {
		name, ok := u32()
		if ok && name > maxNameLen {
			return over("kernel name of %d bytes exceeds limit %d", name, maxNameLen)
		}
		if !ok || !field(int(name)) {
			break
		}
		nd, ok := u32()
		if !ok {
			break
		}
		if nd > nNodes {
			return over("node with %d deps", nd)
		}
		for range nd {
			if !field(4) {
				break nodes
			}
		}
		np, ok := u32()
		if !ok {
			break
		}
		if np > 1<<12 {
			return over("node with %d params", np)
		}
		for range np {
			img, ok := u32()
			if ok && img > maxParamImage {
				return over("param image of %d bytes exceeds limit %d", img, maxParamImage)
			}
			if !ok || !field(int(img)) || !field(1) || !field(4) || !field(8) { // image, pointer, index, offset
				break nodes
			}
		}
		s.nodes++
		s.deps += int(nd)
		s.params += int(np)
	}
	s.end = off
	if s.nodes < int(nNodes) {
		s.err = decodeError("truncated at offset %d (need %d bytes)", off, need)
	}
	return s
}

// Limits and minimum wire sizes of the repeated records, for the
// parse (wireReader.capFor, scanGraph) and for sectionLen.
const (
	maxNameLen    = 1 << 20
	maxParamImage = 8
	minAllocWire  = 1 + 4 + 8 + 4 // free, index, size, empty label
	minNodeWire   = 4 + 4 + 4     // empty kernel name, dep and param counts
	minParamWire  = 4 + 1 + 4 + 8 // empty image, pointer, index, offset
	minPermWire   = 4 + 8 + 1     // index, size, presence
)

// sectionLen is the length appendSection(b, i) appends for a
// validated artifact, field for field.
func (a *Artifact) sectionLen(i int) int {
	n := 0
	switch i {
	case secHeader:
		n = 4 + len(a.ModelName) + 4 + 4
	case secAllocSeq:
		n = 4 + minAllocWire*len(a.AllocSeq)
		for j := range a.AllocSeq {
			n += len(a.AllocSeq[j].Label)
		}
	case secGraphs:
		n = 4
		for j := range a.Graphs {
			n += graphLen(&a.Graphs[j])
		}
	case secKernelTable:
		n = 4 + (4+4+1)*len(a.Kernels) // name, library, exported
		for name, loc := range a.Kernels {
			n += len(name) + len(loc.Library)
		}
	case secPermanent:
		n = 4 + minPermWire*len(a.Permanent)
		for _, pr := range a.Permanent {
			if pr.Contents != nil {
				n += 4 + len(pr.Contents)
			}
		}
	case secKVRecord:
		n = 8 + 4 + 8
	}
	return n
}

// graphLen is the length appendGraph appends for g.
func graphLen(g *GraphRecord) int {
	n := 8 + minNodeWire*len(g.Nodes)
	for _, nr := range g.Nodes {
		n += len(nr.KernelName) + 4*len(nr.Deps) + minParamWire*len(nr.Params)
		for _, p := range nr.Params {
			n += int(p.Size)
		}
	}
	return n
}

// appendSection appends body section i (secHeader … secKVRecord). The
// v2 encoders append every section in order; the v3 encoder and
// BuildTemplate one at a time, so one format definition serves them
// all.
func (a *Artifact) appendSection(b []byte, i int) []byte {
	switch i {
	case secHeader:
		b = appendStr(b, a.ModelName)
		b = appendU32(b, uint32(a.AllocCount))
		b = appendU32(b, uint32(a.PrefixLen))
	case secAllocSeq:
		b = appendU32(b, uint32(len(a.AllocSeq)))
		for i := range a.AllocSeq {
			ev := &a.AllocSeq[i]
			b = appendBool(b, ev.Free)
			b = appendU32(b, uint32(ev.AllocIndex))
			b = appendU64(b, ev.Size)
			b = appendStr(b, ev.Label)
		}
	case secGraphs:
		b = appendU32(b, uint32(len(a.Graphs)))
		for i := range a.Graphs {
			b = appendGraph(b, &a.Graphs[i])
		}
	case secKernelTable:
		names := make([]string, 0, len(a.Kernels))
		for name := range a.Kernels {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic encoding
		b = appendU32(b, uint32(len(names)))
		for _, name := range names {
			loc := a.Kernels[name]
			b = appendStr(b, name)
			b = appendStr(b, loc.Library)
			b = appendBool(b, loc.Exported)
		}
	case secPermanent:
		b = appendU32(b, uint32(len(a.Permanent)))
		for _, pr := range a.Permanent {
			b = appendU32(b, uint32(pr.AllocIndex))
			b = appendU64(b, pr.Size)
			b = appendBool(b, pr.Contents != nil)
			if pr.Contents != nil {
				b = appendBlob(b, pr.Contents)
			}
		}
	case secKVRecord:
		b = appendU64(b, a.KV.FreeMemBytes)
		b = appendU32(b, uint32(a.KV.NumBlocks))
		b = appendU64(b, a.KV.BlockBytes)
	}
	return b
}

// appendGraph appends one materialized graph. The graphs section body
// is exactly u32 count followed by these graph encodings, so the v3
// codec chains graph deltas one graph encoding at a time.
func appendGraph(b []byte, g *GraphRecord) []byte {
	b = appendU32(b, uint32(g.Batch))
	b = appendU32(b, uint32(len(g.Nodes)))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		b = appendStr(b, n.KernelName)
		b = appendU32(b, uint32(len(n.Deps)))
		for _, d := range n.Deps {
			b = appendU32(b, uint32(d))
		}
		b = appendU32(b, uint32(len(n.Params)))
		for j := range n.Params {
			p := &n.Params[j]
			end := len(b) + 4 + int(p.Size) // append all 8 image bytes, keep Size
			b = appendU64(appendU32(b, uint32(p.Size)), binary.LittleEndian.Uint64(p.Image[:]))[:end]
			b = appendBool(b, p.Pointer)
			b = appendU32(b, uint32(p.AllocIndex))
			b = appendU64(b, p.Offset)
		}
	}
	return b
}

// appendBody appends the six body sections and the per-section
// checksum trailer.
func (a *Artifact) appendBody(b []byte) []byte {
	var crcs [numBodySections]uint32
	for i := range crcs {
		start := len(b)
		b = a.appendSection(b, i)
		crcs[i] = crc32.ChecksumIEEE(b[start:])
	}
	b = append(b, numBodySections)
	for _, c := range crcs {
		b = appendU32(b, c)
	}
	return b
}

// Section is one wire-format section's share of an encoded artifact.
type Section struct {
	// Name is the section ("envelope", "header", "alloc_seq", "graphs",
	// "kernel_table", "permanent", "kv_record", "section_crcs").
	Name string
	// Bytes is the section's encoded size.
	Bytes uint64
}

// SectionSizes attributes an artifact's encoded size to wire sections,
// in wire order and summing exactly to len(Encode()). medusa-inspect
// prints this breakdown per artifact.
func (a *Artifact) SectionSizes() ([]Section, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to size inconsistent artifact: %w", err)
	}
	out := []Section{{Name: "envelope", Bytes: envelopeLen}}
	for i, name := range bodySectionNames {
		out = append(out, Section{Name: name, Bytes: uint64(a.sectionLen(i))})
	}
	return append(out, Section{Name: "section_crcs", Bytes: trailerLen}), nil
}

// Encode serializes the artifact as a self-contained v2 artifact
// (CurrentFormatVersion) into one buffer of exactly its encoded length.
func (a *Artifact) Encode() ([]byte, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to encode inconsistent artifact: %w", err)
	}
	n := envelopeLen + trailerLen
	for i := range numBodySections {
		n += a.sectionLen(i)
	}
	b := make([]byte, envelopeLen, n)
	return seal(a.appendBody(b), wireMagic, CurrentFormatVersion), nil
}

// EnvelopeVersion returns the format version that an encoded
// artifact's envelope declares, after checking its length and magic.
func EnvelopeVersion(p []byte) (uint32, error) {
	if len(p) < envelopeLen {
		return 0, fmt.Errorf("medusa: artifact of %d bytes is shorter than its header", len(p))
	}
	if !bytes.Equal(p[:4], wireMagic[:]) {
		return 0, fmt.Errorf("medusa: bad artifact magic %q", p[:4])
	}
	return binary.LittleEndian.Uint32(p[4:8]), nil
}

// Decode parses a self-contained (v2) artifact, verifying magic,
// version, the envelope checksum, and every per-section checksum.
// Checksum failures return a *faults.ArtifactCorruptError naming the
// first damaged section (best effort — "body" when the damage prevents
// even locating sections); structural failures (truncation, limit
// violations, trailing bytes) return descriptive plain errors. A v3
// (template+delta) input returns a typed *faults.TemplateMissingError:
// its template must be supplied through DecodeResolved. Decode never
// panics, whatever the input. The normative wire-format spec lives in
// docs/ARTIFACT_FORMAT.md.
func Decode(p []byte) (*Artifact, error) {
	return DecodeResolved(p, nil)
}

// DecodeResolved parses a v2 or v3 artifact, resolving v3 template
// references through resolve. Re-encoding a decoded artifact with
// Encode always writes v2, and re-encoding with EncodeDelta against
// the same template reproduces the v3 bytes exactly. A nil resolver
// decodes v2 only (v3 surfaces the typed missing-template error). Like
// Decode, it never panics.
func DecodeResolved(p []byte, resolve TemplateResolver) (*Artifact, error) {
	version, err := EnvelopeVersion(p)
	if err != nil {
		return nil, err
	}
	switch version {
	case CurrentFormatVersion, DeltaFormatVersion:
	default:
		return nil, fmt.Errorf("medusa: artifact format v%d not supported (reads v%d and v%d)", version, CurrentFormatVersion, DeltaFormatVersion)
	}
	bodyLen := binary.LittleEndian.Uint32(p[8:12])
	wantCRC := binary.LittleEndian.Uint32(p[12:16])
	if uint64(len(p)-16) != uint64(bodyLen) {
		return nil, fmt.Errorf("medusa: artifact body is %d bytes, header says %d", len(p)-16, bodyLen)
	}
	body := p[16:]
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		detail := fmt.Sprintf("envelope checksum mismatch: %#x != %#x", got, wantCRC)
		if version == DeltaFormatVersion {
			return nil, corruptDeltaError(body, detail)
		}
		return nil, corruptError(body, detail)
	}
	if version == DeltaFormatVersion {
		return decodeDeltaBody(body, resolve)
	}

	a, ends, crcs, err := parseBody(body)
	if err != nil {
		return nil, err
	}
	if section, ok := verifySectionCRCs(body, ends, crcs); !ok {
		return nil, &faults.ArtifactCorruptError{
			Key:     a.ModelName,
			Section: section,
			Detail:  "section checksum mismatch",
		}
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// corruptError builds the ArtifactCorruptError for a v2 body that
// failed the envelope checksum, localizing the damage to the first
// section whose trailer CRC mismatches when the body is still
// structurally parseable, and falling back to "body" when it is not.
func corruptError(body []byte, detail string) error {
	section, key := "body", ""
	if a, ends, crcs, err := parseBody(body); err == nil {
		key = a.ModelName
		if bad, ok := verifySectionCRCs(body, ends, crcs); !ok {
			section = bad
		}
	}
	return &faults.ArtifactCorruptError{Key: key, Section: section, Detail: detail}
}

// verifySectionCRCs recomputes each body section's checksum against
// the trailer, returning the first mismatching section's name.
func verifySectionCRCs(body []byte, ends [numBodySections]int, crcs [numBodySections]uint32) (string, bool) {
	start := 0
	for i, end := range ends {
		if crc32.ChecksumIEEE(body[start:end]) != crcs[i] {
			return bodySectionNames[i], false
		}
		start = end
	}
	return "", true
}

// parseBody decodes the six body sections and the checksum trailer —
// returning the artifact, each section's end offset, and the trailer's
// stored checksums. It performs no checksum verification and no
// semantic validation — Decode layers those on top.
func parseBody(body []byte) (*Artifact, [numBodySections]int, [numBodySections]uint32, error) {
	var ends [numBodySections]int
	var crcs [numBodySections]uint32
	r := &wireReader{p: body}
	a := newDecodedArtifact()
	names := make(map[string]string)
	for i := range ends {
		a.parseSection(r, i, names)
		ends[i] = r.off
	}
	if n := r.u8(); n != numBodySections && r.err == nil {
		r.fail("checksum trailer lists %d sections, want %d", n, numBodySections)
	}
	for i := range crcs {
		crcs[i] = r.u32()
	}

	if r.err != nil {
		return nil, ends, crcs, r.err
	}
	if r.off != len(body) {
		return nil, ends, crcs, fmt.Errorf("medusa: %d trailing bytes after artifact body", len(body)-r.off)
	}
	return a, ends, crcs, nil
}

// newDecodedArtifact returns the empty artifact the parse steps fill.
func newDecodedArtifact() *Artifact {
	return &Artifact{Kernels: make(map[string]KernelLoc)}
}

// parseSection decodes body section i from r into a, the inverse of
// appendSection. Every node of every graph names one of a few kernels;
// names interns them, one string per distinct name, across graphs.
func (a *Artifact) parseSection(r *wireReader, i int, names map[string]string) {
	switch i {
	case secHeader:
		a.ModelName = r.str("model name")
		a.AllocCount = int(r.u32())
		a.PrefixLen = int(r.u32())
	case secAllocSeq:
		nEvents := r.u32()
		if nEvents > 1<<24 {
			r.fail("%d allocation events", nEvents)
		}
		if nEvents > 0 && r.err == nil {
			a.AllocSeq = make([]AllocRecord, 0, r.capFor(nEvents, minAllocWire))
		}
		for i := uint32(0); i < nEvents && r.err == nil; i++ {
			var ev AllocRecord
			ev.Free = r.boolean()
			ev.AllocIndex = int(r.u32())
			ev.Size = r.u64()
			ev.Label = r.str("alloc label")
			a.AllocSeq = append(a.AllocSeq, ev)
		}
	case secGraphs:
		nGraphs := r.u32()
		if nGraphs > 1<<16 {
			r.fail("%d graphs", nGraphs)
		}
		if nGraphs > 0 && r.err == nil {
			a.Graphs = make([]GraphRecord, 0, r.capFor(nGraphs, 8))
		}
		var prev []NodeRecord
		for gi := uint32(0); gi < nGraphs && r.err == nil; gi++ {
			g := parseGraph(r, names, prev)
			a.Graphs, prev = append(a.Graphs, g), g.Nodes
		}
	case secKernelTable:
		nKernels := r.u32()
		if nKernels > 1<<20 {
			r.fail("%d kernel entries", nKernels)
		}
		for i := uint32(0); i < nKernels && r.err == nil; i++ {
			name := r.str("kernel name")
			lib := r.str("library name")
			exported := r.boolean()
			a.Kernels[name] = KernelLoc{Library: lib, Exported: exported}
		}
	case secPermanent:
		nPerm := r.u32()
		if nPerm > 1<<22 {
			r.fail("%d permanent records", nPerm)
		}
		if nPerm > 0 && r.err == nil {
			a.Permanent = make([]PermRecord, 0, r.capFor(nPerm, minPermWire))
		}
		for i := uint32(0); i < nPerm && r.err == nil; i++ {
			var pr PermRecord
			pr.AllocIndex = int(r.u32())
			pr.Size = r.u64()
			if r.boolean() {
				pr.Contents = r.blob("permanent contents", 1<<26)
			}
			a.Permanent = append(a.Permanent, pr)
		}
	case secKVRecord:
		a.KV.FreeMemBytes = r.u64()
		a.KV.NumBlocks = int(r.u32())
		a.KV.BlockBytes = r.u64()
	}
}

// parseGraph decodes one appendGraph encoding from r, interning kernel
// names through prev, the nodes of the graph before it, and names. It
// reads the nodes scanGraph passed, with no check of its own, into one
// slab each for nodes, deps and params; each node's share of a slab is
// a full-slice-expression sub-slice (len == cap). When the scan stopped
// early, r takes its error.
func parseGraph(r *wireReader, names map[string]string, prev []NodeRecord) GraphRecord {
	var g GraphRecord
	g.Batch = int(r.u32())
	nNodes := r.u32()
	if nNodes > 1<<22 {
		r.fail("graph with %d nodes", nNodes)
	}
	if nNodes == 0 || r.err != nil {
		return g
	}
	s := scanGraph(r.p, r.off, nNodes)
	g.Nodes = make([]NodeRecord, s.nodes)
	deps := make([]int32, s.deps)
	params := make([]ParamRecord, s.params)
	le := binary.LittleEndian
	p, off := r.p, r.off
	for i := range g.Nodes {
		n := &g.Nodes[i]
		l := int(le.Uint32(p[off:]))
		name := p[off+4 : off+4+l]
		off += 4 + l
		// Per-batch graphs mostly share a topology, so kernel names.
		if i < len(prev) && string(name) == prev[i].KernelName {
			n.KernelName = prev[i].KernelName
		} else if interned, ok := names[string(name)]; ok {
			n.KernelName = interned
		} else {
			n.KernelName = string(name)
			names[n.KernelName] = n.KernelName
		}
		nd := int(le.Uint32(p[off:]))
		off += 4
		if nd > 0 {
			n.Deps = cut(&deps, nd)
		}
		for j := range n.Deps {
			n.Deps[j] = int32(le.Uint32(p[off:]))
			off += 4
		}
		np := int(le.Uint32(p[off:]))
		off += 4
		if np > 0 {
			n.Params = cut(&params, np)
		}
		for j := range n.Params {
			pr := &n.Params[j]
			size := le.Uint32(p[off:]) // 13 bytes follow the image: read 8, keep size
			le.PutUint64(pr.Image[:], le.Uint64(p[off+4:])&(1<<(8*size)-1))
			pr.Size = uint8(size)
			off += 4 + int(size)
			pr.Pointer = p[off] != 0
			pr.AllocIndex = int32(le.Uint32(p[off+1:]))
			pr.Offset = le.Uint64(p[off+5:])
			off += 1 + 4 + 8
		}
	}
	r.off, r.err = s.end, s.err
	return g
}
