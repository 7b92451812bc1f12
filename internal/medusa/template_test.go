package medusa_test

// Template/delta (v3) tests live in an external test package so they
// can exercise the codec on the real model zoo via the engine's
// offline phase — package medusa cannot import engine (engine imports
// medusa).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/medusa"
	"github.com/medusa-repro/medusa/internal/model"
)

// offlineArtifact materializes one zoo model's artifact (cost-only: no
// validation forwarding, fast enough to run for the whole fleet).
func offlineArtifact(t *testing.T, name string) *medusa.Artifact {
	t.Helper()
	cfg, err := model.ByName(name)
	if err != nil {
		t.Fatalf("model %s: %v", name, err)
	}
	cfg.Functional = false
	art, _, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Seed: 1})
	if err != nil {
		t.Fatalf("offline %s: %v", name, err)
	}
	return art
}

// templateFleetModels is the ext-cache-policies / ext-template fleet:
// ten zoo models across all three architecture families.
var templateFleetModels = []string{
	"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B", "Qwen1.5-7B", "Yi-6B",
	"Falcon-7B", "Llama2-13B", "Qwen1.5-4B", "Qwen1.5-14B", "Yi-9B",
}

func resolverFor(ts ...*medusa.Template) medusa.TemplateResolver {
	return func(id string) (*medusa.Template, bool) {
		for _, t := range ts {
			if t.ID() == id {
				return t, true
			}
		}
		return nil, false
	}
}

func TestTemplateRoundTrip(t *testing.T) {
	art := offlineArtifact(t, "Qwen1.5-1.8B")
	tmpl, err := medusa.BuildTemplate("medusa/templates/standard", art)
	if err != nil {
		t.Fatalf("BuildTemplate: %v", err)
	}

	// Template encoding is a fixed point.
	enc := tmpl.Encode()
	tmpl2, err := medusa.DecodeTemplate(enc)
	if err != nil {
		t.Fatalf("DecodeTemplate: %v", err)
	}
	if !bytes.Equal(tmpl2.Encode(), enc) {
		t.Fatal("template encode→decode→encode is not a fixed point")
	}
	if tmpl2.ID() != tmpl.ID() || tmpl2.BodyCRC() != tmpl.BodyCRC() {
		t.Fatalf("template identity drifted: %q/%#x vs %q/%#x",
			tmpl2.ID(), tmpl2.BodyCRC(), tmpl.ID(), tmpl.BodyCRC())
	}

	// Delta round trip: decode(v3) re-encodes to the original v2 bytes
	// and to the original v3 bytes.
	other := offlineArtifact(t, "Qwen1.5-4B")
	wantV2, err := other.Encode()
	if err != nil {
		t.Fatal(err)
	}
	deltaWire, err := other.EncodeDelta(tmpl)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	back, err := medusa.DecodeResolved(deltaWire, resolverFor(tmpl))
	if err != nil {
		t.Fatalf("DecodeResolved: %v", err)
	}
	gotV2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotV2, wantV2) {
		t.Fatal("v3 decode does not reproduce the v2 encoding")
	}
	again, err := back.EncodeDelta(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, deltaWire) {
		t.Fatal("v3 encode→decode→encode is not a fixed point")
	}

	// TemplateRef peeks without resolving.
	id, crc, ok := TemplateRefOf(deltaWire)
	if !ok || id != tmpl.ID() || crc != tmpl.BodyCRC() {
		t.Fatalf("TemplateRef = %q/%#x/%v, want %q/%#x/true", id, crc, ok, tmpl.ID(), tmpl.BodyCRC())
	}
	if _, _, ok := TemplateRefOf(wantV2); ok {
		t.Fatal("TemplateRef claimed a v2 artifact references a template")
	}

	// Self-delta: a template built from the same artifact shrinks it
	// the most.
	selfTmpl, err := medusa.BuildTemplate("medusa/templates/self", other)
	if err != nil {
		t.Fatal(err)
	}
	selfDelta, err := other.EncodeDelta(selfTmpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(selfDelta) >= len(deltaWire) {
		t.Errorf("self-template delta (%d bytes) not smaller than cross-model delta (%d bytes)",
			len(selfDelta), len(deltaWire))
	}
}

// TemplateRefOf adapts medusa.TemplateRef for tests.
func TemplateRefOf(p []byte) (string, uint32, bool) { return medusa.TemplateRef(p) }

func TestTemplateTypedErrors(t *testing.T) {
	art := offlineArtifact(t, "Qwen1.5-0.5B")
	tmpl, err := medusa.BuildTemplate("medusa/templates/fused", art)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := art.EncodeDelta(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding against no template is an error, not a panic.
	if _, err := art.EncodeDelta(nil); err == nil {
		t.Fatal("EncodeDelta(nil) succeeded")
	}
	if _, err := art.DeltaSectionSizes(nil); err == nil {
		t.Fatal("DeltaSectionSizes(nil) succeeded")
	}

	// Missing template: nil resolver and resolver without the ID.
	var missing *faults.TemplateMissingError
	if _, err := medusa.Decode(wire); !errors.As(err, &missing) {
		t.Fatalf("Decode(v3) = %v, want TemplateMissingError", err)
	}
	if missing.Template != tmpl.ID() {
		t.Fatalf("missing template ID = %q, want %q", missing.Template, tmpl.ID())
	}
	if _, err := medusa.DecodeResolved(wire, resolverFor()); !errors.As(err, &missing) {
		t.Fatalf("DecodeResolved(empty resolver) = %v, want TemplateMissingError", err)
	}
	if reason, ok := faults.DegradeReason(missing); !ok || reason != faults.ReasonTemplateMissing {
		t.Fatalf("DegradeReason(missing) = %q/%v", reason, ok)
	}

	// Mismatched template: same ID, different content.
	otherArt := offlineArtifact(t, "Qwen1.5-1.8B")
	wrong, err := medusa.BuildTemplate(tmpl.ID(), otherArt)
	if err != nil {
		t.Fatal(err)
	}
	var mismatch *faults.TemplateMismatchError
	if _, err := medusa.DecodeResolved(wire, resolverFor(wrong)); !errors.As(err, &mismatch) {
		t.Fatalf("DecodeResolved(wrong template) = %v, want TemplateMismatchError", err)
	}
	if reason, ok := faults.DegradeReason(mismatch); !ok || reason != faults.ReasonTemplateMismatch {
		t.Fatalf("DegradeReason(mismatch) = %q/%v", reason, ok)
	}

	// Corrupted template object: CRC failure is a typed corrupt error.
	enc := tmpl.Encode()
	enc[len(enc)-1] ^= 0xff
	var corrupt *faults.ArtifactCorruptError
	if _, err := medusa.DecodeTemplate(enc); !errors.As(err, &corrupt) {
		t.Fatalf("DecodeTemplate(corrupt) = %v, want ArtifactCorruptError", err)
	} else if corrupt.Section != "template" {
		t.Fatalf("corrupt section = %q, want template", corrupt.Section)
	}

	// Version-skewed template object: typed mismatch.
	enc2 := tmpl.Encode()
	enc2[4] = 99
	if _, err := medusa.DecodeTemplate(enc2); !errors.As(err, &mismatch) {
		t.Fatalf("DecodeTemplate(version skew) = %v, want TemplateMismatchError", err)
	}
}

func TestCorruptedDeltaLocalizes(t *testing.T) {
	art := offlineArtifact(t, "Qwen1.5-0.5B")
	tmpl, err := medusa.BuildTemplate("medusa/templates/fused", art)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := art.EncodeDelta(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	resolve := resolverFor(tmpl)

	// Flip one byte in the middle of the body: decode must fail with a
	// typed corruption error naming a real wire section, never panic.
	for _, off := range []int{20, len(wire) / 2, len(wire) - 10} {
		mut := append([]byte(nil), wire...)
		mut[off] ^= 0x41
		_, err := medusa.DecodeResolved(mut, resolve)
		if err == nil {
			t.Fatalf("decode of corrupted byte %d succeeded", off)
		}
		var corrupt *faults.ArtifactCorruptError
		if errors.As(err, &corrupt) {
			switch corrupt.Section {
			case "template_ref", "header", "alloc_seq", "graphs",
				"kernel_table", "permanent", "kv_record", "body", "template":
			default:
				t.Fatalf("corrupt byte %d localized to unknown section %q", off, corrupt.Section)
			}
		}
	}
}

// zooFleet materializes templateFleetModels and builds one template
// per architecture family, referenced on the lexicographically smallest
// model name as engine.StoreTemplates does. The fleet is built once per
// test binary; tests only read it.
func zooFleet(t *testing.T) (map[string]*medusa.Artifact, map[model.Family]*medusa.Template) {
	t.Helper()
	fleet.once.Do(func() { fleet.arts, fleet.templates, fleet.err = buildZooFleet() })
	if fleet.err != nil {
		t.Fatal(fleet.err)
	}
	return fleet.arts, fleet.templates
}

var fleet struct {
	once      sync.Once
	arts      map[string]*medusa.Artifact
	templates map[model.Family]*medusa.Template
	err       error
}

func buildZooFleet() (map[string]*medusa.Artifact, map[model.Family]*medusa.Template, error) {
	arts := map[string]*medusa.Artifact{}
	refs := map[model.Family]*medusa.Artifact{}
	for _, name := range templateFleetModels {
		cfg, err := model.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		cfg.Functional = false
		art, _, err := engine.RunOffline(engine.OfflineOptions{Model: cfg, Seed: 1})
		if err != nil {
			return nil, nil, fmt.Errorf("offline %s: %w", name, err)
		}
		arts[name] = art
		if ref := refs[cfg.Family]; ref == nil || art.ModelName < ref.ModelName {
			refs[cfg.Family] = art
		}
	}
	templates := map[model.Family]*medusa.Template{}
	for fam, ref := range refs {
		tmpl, err := medusa.BuildTemplate("medusa/templates/"+string(fam), ref)
		if err != nil {
			return nil, nil, err
		}
		templates[fam] = tmpl
	}
	return arts, templates, nil
}

// TestTemplateFleetDedup measures the acceptance criterion on the real
// ten-model Zipf fleet: per-family templates plus per-model deltas must
// shrink the registry footprint by at least 5x versus self-contained v2
// artifacts.
func TestTemplateFleetDedup(t *testing.T) {
	arts, templates := zooFleet(t)
	var fullBytes, sharedBytes int
	for _, tmpl := range templates {
		sharedBytes += len(tmpl.Encode())
	}
	for _, name := range templateFleetModels {
		cfg, _ := model.ByName(name)
		art := arts[name]
		full, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fullBytes += len(full)
		delta, err := art.EncodeDelta(templates[cfg.Family])
		if err != nil {
			t.Fatal(err)
		}
		sharedBytes += len(delta)

		// Every delta must still decode to the exact artifact.
		back, err := medusa.DecodeResolved(delta, resolverFor(templates[cfg.Family]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reEnc, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reEnc, full) {
			t.Fatalf("%s: v3 round trip lost bytes", name)
		}
		t.Logf("%-14s full %8d  delta %7d  (%.1fx)", name, len(full), len(delta),
			float64(len(full))/float64(len(delta)))
	}
	factor := float64(fullBytes) / float64(sharedBytes)
	t.Logf("fleet: full %d bytes, templates+deltas %d bytes, dedup %.2fx",
		fullBytes, sharedBytes, factor)
	if factor < 5 {
		t.Fatalf("fleet dedup factor %.2fx < 5x acceptance floor", factor)
	}
}

func TestDeltaSectionSizesSum(t *testing.T) {
	art := offlineArtifact(t, "Qwen1.5-0.5B")
	tmpl, err := medusa.BuildTemplate("medusa/templates/fused", art)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := art.EncodeDelta(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := art.DeltaSectionSizes(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, s := range secs {
		sum += s.Bytes
	}
	if sum != uint64(len(wire)) {
		t.Fatalf("DeltaSectionSizes sum %d != wire length %d", sum, len(wire))
	}
	tSecs := tmpl.SectionSizes()
	sum = 0
	for _, s := range tSecs {
		sum += s.Bytes
	}
	if sum != uint64(len(tmpl.Encode())) {
		t.Fatalf("Template.SectionSizes sum %d != encoded length %d", sum, len(tmpl.Encode()))
	}
}

func TestLegacyV1Decodes(t *testing.T) {
	art := offlineArtifact(t, "Qwen1.5-0.5B")
	v2, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := medusa.EncodeLegacyV1(art)
	if err != nil {
		t.Fatal(err)
	}
	back, err := medusa.Decode(v1)
	if err != nil {
		t.Fatalf("Decode(v1): %v", err)
	}
	reEnc, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reEnc, v2) {
		t.Fatal("v1 decode does not normalize to the v2 encoding")
	}
}

// mutate returns a copy of p with a few in-place substitutions,
// insertions and deletions: the edits sibling sections differ by.
func mutate(rng *rand.Rand, p []byte) []byte {
	out := append([]byte(nil), p...)
	for e := rng.Intn(6); e > 0 && len(out) > 0; e-- {
		at := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out[at] ^= byte(1 + rng.Intn(255))
		case 1:
			ins := make([]byte, 1+rng.Intn(20))
			rng.Read(ins)
			out = append(out[:at], append(ins, out[at:]...)...)
		default:
			end := min(len(out), at+1+rng.Intn(20))
			out = append(out[:at], out[end:]...)
		}
	}
	return out
}

// TestDeltaEncodeMatchesOracle requires the delta encoder to produce
// the map-indexed oracle encoder's bytes exactly: on random pairs, on
// inputs that overflow the per-seed candidate cap or are too short to
// index, and on every pair the v3 encoder delta-encodes for the zoo.
func TestDeltaEncodeMatchesOracle(t *testing.T) {
	var check medusa.DeltaChecker
	rng := rand.New(rand.NewSource(1))

	// Random pairs over a small alphabet (so seeds repeat) and their
	// edited copies.
	for i := 0; i < 300; i++ {
		src := make([]byte, rng.Intn(600))
		alphabet := 1 + rng.Intn(8)
		for j := range src {
			src[j] = byte(rng.Intn(alphabet))
		}
		tgt := mutate(rng, src)
		if rng.Intn(4) == 0 {
			tgt = make([]byte, rng.Intn(600))
			rng.Read(tgt)
		}
		check.Check(t, "random", src, tgt)
	}

	// Runs of one repeated byte overflow the per-seed candidate cap;
	// sources shorter than a seed have no index at all.
	zeros := func(n int) []byte { return make([]byte, n) }
	rep := func(s string, n int) []byte { return []byte(strings.Repeat(s, n)) }
	// A seed whose only long match is its ninth occurrence: past the
	// cap, so the target byte stays a literal.
	var ninth []byte
	for i := 0; i < 8; i++ {
		ninth = append(append(ninth, "abcdefgh"...), rep(string(rune('0'+i)), 8)...)
	}
	ninth = append(ninth, "abcdefgh-the-long-tail-after-the-ninth-seed"...)
	pairs := []struct {
		what     string
		src, tgt []byte
	}{
		{"ninth candidate", ninth, []byte("zzzzabcdefgh-the-long-tail-after-the-ninth-seed")},
		{"eighth candidate", ninth[16:], []byte("zzzzabcdefgh-the-long-tail-after-the-ninth-seed")},
		{"repeated byte", zeros(200), zeros(300)},
		{"repeated byte, shifted tail", append(zeros(100), rep("k", 60)...), append(rep("k", 80), zeros(150)...)},
		{"periodic", rep("toy_scale|", 50), append(rep("x", 9), rep("toy_scale|", 40)...)},
		{"overflowing cap then unique", append(zeros(64), rep("abcdefghijklmnopqrstuvwxyz", 2)...),
			append(rep("abcdefghijklmnopqrstuvwxyz", 2), zeros(64)...)},
		{"empty source", nil, rep("abc", 10)},
		{"empty target", rep("abc", 10), nil},
		{"source shorter than a seed", []byte("abcdefg"), []byte("abcdefgabcdefg")},
		{"seed-length source", []byte("abcdefgh"), rep("abcdefgh", 4)},
	}
	for _, p := range pairs {
		check.Check(t, p.what, p.src, p.tgt)
	}

	// Every template-section and graph-chain pair of the zoo artifacts.
	if testing.Short() {
		t.Skip("zoo pairs skipped in -short mode")
	}
	arts, templates := zooFleet(t)
	for _, name := range templateFleetModels {
		cfg, _ := model.ByName(name)
		medusa.CheckDeltaOracle(t, arts[name], templates[cfg.Family])
	}
}
