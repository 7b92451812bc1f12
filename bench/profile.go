package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped protobuf profiles runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto) far enough to walk each
// sample's stack: sample → location → line → function → string table.
// The module stays dependency-free, so the wire format is parsed here.

// stackSample is one profile sample: its first value (the sample count
// for CPU profiles) and its function names, innermost frame first with
// inlined frames expanded.
type stackSample struct {
	value int64
	funcs []string
}

// Field numbers from profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a gzipped pprof profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case sampleLocation:
					return appendPacked(&s.locs, v, b)
				case sampleValue:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		st := stackSample{value: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto has none the decoder
// needs.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var body []byte
		switch typ {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("truncated length-delimited field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder
// writes either as one varint (body nil) or as a packed run.
func appendPacked(dst *[]uint64, v uint64, body []byte) error {
	if body == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(body) > 0 {
		x, n := uvarint(body)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		body = body[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repoLayers are the repository modules (internal/<layer>) the CPU
// profile is attributed to.
var repoLayers = []string{
	"eventq", "cluster", "serverless", "sched", "kvcache", "router",
	"autoscale", "artifactcache", "workload", "metrics", "obs",
	"engine", "medusa", "cuda", "storage",
}

// cpuLayers are the repository layers, then the runtime's collector and
// allocator, then everything else.
var cpuLayers = append(append([]string(nil), repoLayers...), "runtime_gc", "runtime_malloc", "other")

// inclusiveLayers get an inclusive share as well: every sample with a
// frame in the layer anywhere on its stack.
var inclusiveLayers = []string{"sched", "engine"}

const repoInternal = "github.com/medusa-repro/medusa/internal/"

// repoLayer returns the listed repository layer a function belongs to,
// or "" for the standard library, the runtime, the benchmark itself and
// unlisted repository packages.
func repoLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoInternal)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range repoLayers {
		if l == rest {
			return l
		}
	}
	return ""
}

// sampleLayer charges one stack to a layer. Background collector
// stacks are runtime_gc and anything under mallocgc is runtime_malloc.
// Otherwise the innermost frame of a listed repository layer takes the
// sample, so standard-library and unlisted repository frames count for
// their repository caller. Stacks with no such frame are other.
func sampleLayer(funcs []string) string {
	for _, f := range funcs {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime_gc"
		}
	}
	for _, f := range funcs {
		if f == "runtime.mallocgc" {
			return "runtime_malloc"
		}
	}
	for _, f := range funcs {
		if l := repoLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

// cpuShares attributes samples to layers: self shares per cpuLayers
// entry (summing to 1) and inclusive shares per inclusiveLayers entry.
func cpuShares(samples []stackSample) (self, incl map[string]float64) {
	self = make(map[string]float64, len(cpuLayers))
	incl = make(map[string]float64, len(inclusiveLayers))
	for _, l := range cpuLayers {
		self[l] = 0
	}
	for _, l := range inclusiveLayers {
		incl[l] = 0
	}
	var total float64
	for _, s := range samples {
		v := float64(s.value)
		total += v
		self[sampleLayer(s.funcs)] += v
		for _, l := range inclusiveLayers {
			for _, f := range s.funcs {
				if repoLayer(f) == l {
					incl[l] += v
					break
				}
			}
		}
	}
	if total == 0 {
		return self, incl
	}
	for _, l := range cpuLayers {
		self[l] /= total
	}
	for _, l := range inclusiveLayers {
		incl[l] /= total
	}
	return self, incl
}
