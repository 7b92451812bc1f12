package medusa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"github.com/medusa-repro/medusa/internal/faults"
)

// Artifact wire format (normative spec: docs/ARTIFACT_FORMAT.md):
//
//	"MDSA" | u32 version | u32 bodyLen | u32 crc32(body) | body
//
// For the self-contained versions (v1, v2) the body is a flat
// little-endian encoding of the artifact's six sections, followed in
// v2 by a checksum trailer:
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
// build wrong graphs. The per-section trailer (new in v2) lets the
// decoder name the first damaged section, so a corrupt restore
// surfaces a *faults.ArtifactCorruptError pinpointing what was lost
// rather than an opaque checksum failure.
var wireMagic = [4]byte{'M', 'D', 'S', 'A'}

// numBodySections is the fixed count of checksummed body sections.
const numBodySections = 6

// bodySectionNames lists the checksummed body sections in wire order.
var bodySectionNames = [numBodySections]string{
	"header", "alloc_seq", "graphs", "kernel_table", "permanent", "kv_record",
}

// envelopeLen is the size of the "magic | u32 version | u32 bodyLen |
// u32 crc32(body)" envelope that fronts artifacts and templates.
const envelopeLen = 16

// wireWriter appends little-endian fields to buf. Whole artifacts and
// templates start from newEnvelopeWriter, which reserves the envelope
// in front of the body so seal fills it in place instead of copying
// the body behind a fresh header.
type wireWriter struct {
	buf []byte
}

// newEnvelopeWriter returns a writer whose buffer starts with the
// reserved envelope; the body follows at offset envelopeLen.
func newEnvelopeWriter() wireWriter {
	return wireWriter{buf: make([]byte, envelopeLen, 4<<10)}
}

// reserve makes room for n more bytes, at least doubling the buffer
// when it is full: append alone grows a large slice by about 1.25x,
// which would copy a multi-megabyte body several times over.
func (w *wireWriter) reserve(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.buf = slices.Grow(w.buf, max(n, cap(w.buf)))
	}
}

func (w *wireWriter) u8(v uint8) {
	w.reserve(1)
	w.buf = append(w.buf, v)
}
func (w *wireWriter) u32(v uint32) {
	w.reserve(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}
func (w *wireWriter) u64(v uint64) {
	w.reserve(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}
func (w *wireWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wireWriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.reserve(len(p))
	w.buf = append(w.buf, p...)
}
func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.reserve(len(s))
	w.buf = append(w.buf, s...)
}

// seal writes the envelope into the space newEnvelopeWriter reserved
// and returns the complete encoding.
func (w *wireWriter) seal(magic [4]byte, version uint32) []byte {
	body := w.buf[envelopeLen:]
	copy(w.buf, magic[:])
	binary.LittleEndian.PutUint32(w.buf[4:], version)
	binary.LittleEndian.PutUint32(w.buf[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.buf[12:], crc32.ChecksumIEEE(body))
	return w.buf
}

type wireReader struct {
	p   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("medusa: artifact decode: "+format, args...)
	}
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

func (r *wireReader) str(what string) string { return string(r.view(what, 1<<20)) }

// capFor bounds a decoded element count by the bytes left in the
// input, given each element's minimum wire size, so pre-sizing from a
// corrupt count cannot allocate more than the input could describe.
func (r *wireReader) capFor(n uint32, minWire int) int {
	if left := (len(r.p) - r.off) / minWire; left < int(n) {
		return left
	}
	return int(n)
}

// scanGraph pre-scans the node encodings of one graph at the front of
// p, without allocating, and returns the totals its decode slabs need:
// dependencies and param records. It stops at the
// first truncated or out-of-limit node, so it counts only records the
// bytes of p actually hold and can never size a slab beyond what the
// input could describe.
func scanGraph(p []byte, nNodes uint32) (deps, params int) {
	off := 0
	u32 := func() (uint32, bool) {
		if len(p)-off < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p[off:])
		off += 4
		return v, true
	}
	skip := func(n uint64) bool {
		if uint64(len(p)-off) < n {
			return false
		}
		off += int(n)
		return true
	}
	for ni := uint32(0); ni < nNodes; ni++ {
		name, ok := u32()
		if !ok || name > 1<<20 || !skip(uint64(name)) {
			return
		}
		nd, ok := u32()
		if !ok || nd > nNodes || !skip(4*uint64(nd)) {
			return
		}
		deps += int(nd)
		np, ok := u32()
		if !ok || np > 1<<12 {
			return
		}
		for pi := uint32(0); pi < np; pi++ {
			img, ok := u32()
			if !ok || img > maxParamImage || !skip(uint64(img)+1+4+8) {
				return
			}
			params++
		}
	}
	return
}

// Minimum wire sizes of the repeated records, for wireReader.capFor.
const (
	maxParamImage = 8
	minAllocWire  = 1 + 4 + 8 + 4 // free, index, size, empty label
	minNodeWire   = 4 + 4 + 4     // empty kernel name, dep and param counts
	minParamWire  = 4 + 1 + 4 + 8 // empty image, pointer, index, offset
	minPermWire   = 4 + 8 + 1     // index, size, presence
)

// encodeBody writes the artifact body, calling mark after each wire
// section so callers can attribute bytes to sections without a second
// format definition (Encode and SectionSizes share this one walk). A
// non-nil graphEnds (one slot per graph) receives each graph's end
// offset in w, so the v3 encoder and BuildTemplate cut per-graph
// bodies out of this one encoding instead of encoding graphs twice.
func (a *Artifact) encodeBody(w *wireWriter, mark func(section string), graphEnds []int) {
	w.str(a.ModelName)
	w.u32(uint32(a.AllocCount))
	w.u32(uint32(a.PrefixLen))
	mark("header")

	w.u32(uint32(len(a.AllocSeq)))
	for _, ev := range a.AllocSeq {
		w.boolean(ev.Free)
		w.u32(uint32(ev.AllocIndex))
		w.u64(ev.Size)
		w.str(ev.Label)
	}
	mark("alloc_seq")

	w.u32(uint32(len(a.Graphs)))
	for i := range a.Graphs {
		start := len(w.buf)
		encodeGraph(w, &a.Graphs[i])
		if i == 0 {
			// The per-batch graphs of one model share a topology, so
			// the first one sizes the rest of the section, with an
			// eighth of a graph to spare for the small sections after.
			g := len(w.buf) - start
			w.reserve(g*(len(a.Graphs)-1) + g/8)
		}
		if graphEnds != nil {
			graphEnds[i] = len(w.buf)
		}
	}
	mark("graphs")

	names := make([]string, 0, len(a.Kernels))
	for name := range a.Kernels {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic encoding
	w.u32(uint32(len(names)))
	for _, name := range names {
		loc := a.Kernels[name]
		w.str(name)
		w.str(loc.Library)
		w.boolean(loc.Exported)
	}
	mark("kernel_table")

	w.u32(uint32(len(a.Permanent)))
	for _, pr := range a.Permanent {
		w.u32(uint32(pr.AllocIndex))
		w.u64(pr.Size)
		w.boolean(pr.Contents != nil)
		if pr.Contents != nil {
			w.bytes(pr.Contents)
		}
	}
	mark("permanent")

	w.u64(a.KV.FreeMemBytes)
	w.u32(uint32(a.KV.NumBlocks))
	w.u64(a.KV.BlockBytes)
	mark("kv_record")
}

// encodeGraph writes one materialized graph. The graphs section body
// is exactly u32 count followed by these graph encodings, so the v3
// encoder takes per-graph bodies as sub-slices of the section and the
// v3 decoder splices resolved graph bodies back into a bit-exact v2
// section.
func encodeGraph(w *wireWriter, g *GraphRecord) {
	w.u32(uint32(g.Batch))
	w.u32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		w.str(n.KernelName)
		w.u32(uint32(len(n.Deps)))
		for _, d := range n.Deps {
			w.u32(uint32(d))
		}
		w.u32(uint32(len(n.Params)))
		for _, p := range n.Params {
			w.bytes(p.Raw())
			w.boolean(p.Pointer)
			w.u32(uint32(p.AllocIndex))
			w.u64(p.Offset)
		}
	}
}

// encodeBodyChecksummed writes the body sections via encodeBody, then
// appends the v2 per-section checksum trailer. mark fires after each
// section and once more for the trailer itself ("section_crcs").
func (a *Artifact) encodeBodyChecksummed(w *wireWriter, mark func(section string)) {
	var crcs [numBodySections]uint32
	sec := 0
	last := len(w.buf)
	a.encodeBody(w, func(section string) {
		crcs[sec] = crc32.ChecksumIEEE(w.buf[last:])
		sec++
		last = len(w.buf)
		mark(section)
	}, nil)
	w.u8(uint8(len(crcs)))
	for _, c := range crcs {
		w.u32(c)
	}
	mark("section_crcs")
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
	var w wireWriter
	out := []Section{{Name: "envelope", Bytes: 16}}
	last := 0
	a.encodeBodyChecksummed(&w, func(section string) {
		out = append(out, Section{Name: section, Bytes: uint64(len(w.buf) - last)})
		last = len(w.buf)
	})
	return out, nil
}

// Encode serializes the artifact.
func (a *Artifact) Encode() ([]byte, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to encode inconsistent artifact: %w", err)
	}
	w := newEnvelopeWriter()
	a.encodeBodyChecksummed(&w, func(string) {})
	return w.seal(wireMagic, a.FormatVersion), nil
}

// EncodeLegacyV1 serializes the artifact in the original trailer-less
// v1 layout. Kept (and exercised by the cross-version tests and
// fuzzers) so registries written before the v2 per-section trailer
// remain readable; new artifacts always encode as v2 or v3.
func EncodeLegacyV1(a *Artifact) ([]byte, error) {
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("medusa: refusing to encode inconsistent artifact: %w", err)
	}
	w := newEnvelopeWriter()
	a.encodeBody(&w, func(string) {}, nil)
	return w.seal(wireMagic, legacyFormatVersion), nil
}

// Decode parses a self-contained (v1 or v2) artifact, verifying magic,
// version, the envelope checksum, and (v2) every per-section checksum.
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

// DecodeResolved parses an artifact of any supported wire version,
// resolving v3 template references through resolve. Decoded artifacts
// are normalized to the current self-contained version: re-encoding
// with Encode always writes v2, and re-encoding with EncodeDelta
// against the same template reproduces the v3 bytes exactly. A nil
// resolver decodes v1/v2 only (v3 surfaces the typed missing-template
// error). Like Decode, it never panics.
func DecodeResolved(p []byte, resolve TemplateResolver) (*Artifact, error) {
	if len(p) < 16 {
		return nil, fmt.Errorf("medusa: artifact of %d bytes is shorter than its header", len(p))
	}
	if !bytes.Equal(p[:4], wireMagic[:]) {
		return nil, fmt.Errorf("medusa: bad artifact magic %q", p[:4])
	}
	version := binary.LittleEndian.Uint32(p[4:8])
	switch version {
	case legacyFormatVersion, CurrentFormatVersion, DeltaFormatVersion:
	default:
		return nil, fmt.Errorf("medusa: artifact format v%d not supported (≤ v%d)", version, DeltaFormatVersion)
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
		return nil, corruptError(body, version == CurrentFormatVersion, detail)
	}
	if version == DeltaFormatVersion {
		return decodeDeltaBody(body, resolve)
	}

	a, ends, crcs, err := parseBody(body, version == CurrentFormatVersion)
	if err != nil {
		return nil, err
	}
	if version == CurrentFormatVersion {
		if section, ok := verifySectionCRCs(body, ends, crcs); !ok {
			return nil, &faults.ArtifactCorruptError{
				Key:     a.ModelName,
				Section: section,
				Detail:  "section checksum mismatch",
			}
		}
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// corruptError builds the ArtifactCorruptError for a v1/v2 body that
// failed the envelope checksum, localizing the damage to the first
// section whose trailer CRC mismatches when the body is still
// structurally parseable (v2 only — v1 has no trailer), and falling
// back to "body" when it is not.
func corruptError(body []byte, trailer bool, detail string) error {
	section, key := "body", ""
	if a, ends, crcs, err := parseBody(body, trailer); err == nil {
		key = a.ModelName
		if trailer {
			if bad, ok := verifySectionCRCs(body, ends, crcs); !ok {
				section = bad
			}
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

// parseBody decodes the six body sections and, when trailer is set
// (v2), the checksum trailer — returning the artifact, each section's
// end offset, and the trailer's stored checksums. It performs no
// checksum verification and no semantic validation — Decode layers
// those on top.
func parseBody(body []byte, trailer bool) (*Artifact, [numBodySections]int, [numBodySections]uint32, error) {
	var ends [numBodySections]int
	var crcs [numBodySections]uint32
	sec := 0
	endSection := func(r *wireReader) {
		if r.err == nil && sec < numBodySections {
			ends[sec] = r.off
			sec++
		}
	}

	r := &wireReader{p: body}
	a := &Artifact{FormatVersion: CurrentFormatVersion, Kernels: make(map[string]KernelLoc)}
	a.ModelName = r.str("model name")
	a.AllocCount = int(r.u32())
	a.PrefixLen = int(r.u32())
	endSection(r)

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
	endSection(r)

	// Every node of every graph names one of a few kernels; sharing one
	// string per distinct name saves an allocation per node.
	kernelNames := make(map[string]string)
	nGraphs := r.u32()
	if nGraphs > 1<<16 {
		r.fail("%d graphs", nGraphs)
	}
	if nGraphs > 0 && r.err == nil {
		a.Graphs = make([]GraphRecord, 0, r.capFor(nGraphs, 8))
	}
	for gi := uint32(0); gi < nGraphs && r.err == nil; gi++ {
		var g GraphRecord
		g.Batch = int(r.u32())
		nNodes := r.u32()
		if nNodes > 1<<22 {
			r.fail("graph with %d nodes", nNodes)
		}
		if nNodes > 0 && r.err == nil {
			g.Nodes = make([]NodeRecord, 0, r.capFor(nNodes, minNodeWire))
		}
		// Per-graph slabs for every node's deps and param records
		// (images are inline in the records), sized by a pre-scan.
		// Each node's share is a full-slice-expression sub-slice
		// (len == cap); should a corrupt graph outgrow the scan, append
		// reallocates and the shares already cut keep the old backing.
		nDepsTotal, nParamsTotal := scanGraph(r.p[r.off:], nNodes)
		deps := make([]int, 0, nDepsTotal)
		params := make([]ParamRecord, 0, nParamsTotal)
		for ni := uint32(0); ni < nNodes && r.err == nil; ni++ {
			var n NodeRecord
			name := r.view("kernel name", 1<<20)
			var ok bool
			if n.KernelName, ok = kernelNames[string(name)]; !ok {
				n.KernelName = string(name)
				kernelNames[n.KernelName] = n.KernelName
			}
			nDeps := r.u32()
			if nDeps > nNodes {
				r.fail("node with %d deps", nDeps)
			}
			if nDeps > 0 && r.err == nil {
				start := len(deps)
				for di := uint32(0); di < nDeps && r.err == nil; di++ {
					deps = append(deps, int(r.u32()))
				}
				n.Deps = deps[start:len(deps):len(deps)]
			}
			nParams := r.u32()
			if nParams > 1<<12 {
				r.fail("node with %d params", nParams)
			}
			if nParams > 0 && r.err == nil {
				start := len(params)
				for pi := uint32(0); pi < nParams && r.err == nil; pi++ {
					var p ParamRecord
					if size := r.u32(); size > maxParamImage {
						r.fail("param image of %d bytes exceeds limit %d", size, maxParamImage)
					} else {
						p.Size = uint8(copy(p.Image[:], r.take(int(size))))
					}
					p.Pointer = r.boolean()
					p.AllocIndex = int32(r.u32())
					p.Offset = r.u64()
					params = append(params, p)
				}
				n.Params = params[start:len(params):len(params)]
			}
			g.Nodes = append(g.Nodes, n)
		}
		a.Graphs = append(a.Graphs, g)
	}
	endSection(r)

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
	endSection(r)

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
	endSection(r)

	a.KV.FreeMemBytes = r.u64()
	a.KV.NumBlocks = int(r.u32())
	a.KV.BlockBytes = r.u64()
	endSection(r)

	if trailer {
		if n := r.u8(); n != numBodySections && r.err == nil {
			r.fail("checksum trailer lists %d sections, want %d", n, numBodySections)
		}
		for i := 0; i < numBodySections; i++ {
			crcs[i] = r.u32()
		}
	}

	if r.err != nil {
		return nil, ends, crcs, r.err
	}
	if r.off != len(body) {
		return nil, ends, crcs, fmt.Errorf("medusa: %d trailing bytes after artifact body", len(body)-r.off)
	}
	return a, ends, crcs, nil
}
