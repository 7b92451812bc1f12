package medusa_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachFile is the checked-in production-reachability report.
const reachFile = "testdata/reach.txt"

// modulePrefix is stripped from the file names coverage profiles carry.
const modulePrefix = "github.com/medusa-repro/medusa/"

// The reach of a block: what reached it.
const (
	reachTestOnly = "test-only"
	reachNever    = "never-run"
	reachSched    = "sched"
)

// The triage classes of a listed block (DESIGN.md §6).
const (
	// classOracle: a reference implementation or invariant check that
	// tests compare production code against.
	classOracle = "oracle"
	// classKnown: a mechanism production does not reach yet, kept on
	// purpose; the reason is in the entry's comment.
	classKnown = "known"
	// classUnexercised: a fault, error, guard or edge path no production
	// command takes yet.
	classUnexercised = "unexercised"
	// classSched: reached or not depending on goroutine scheduling. Such
	// a block is always listed and counted in neither test-only nor
	// never-run, so the report does not flap.
	classSched = "sched"
)

// reachClasses triages every test-only or never-run block that is not
// an error return. A key is "file", "file function" or "file function:
// text", where text is the block's first source line, trimmed; a block
// takes the class of its most specific key.
var reachClasses = map[string]string{
	// Oracles: reference forms tests compare production against — the
	// reference event loop and its invariant checks (checkIdle,
	// checkLive), and the linear-scan matchers the trace index replaced.
	"internal/medusa/analyze.go (*Recorder).backwardMatch":                                      classOracle,
	"internal/medusa/analyze.go (*Recorder).firstMatch":                                         classOracle,
	"internal/medusa/analyze.go analyzeGraph: case opts.LinearMatch:":                           classOracle,
	"internal/medusa/analyze.go analyzeGraph: case opts.NaiveFirstMatch && opts.LinearMatch:":   classOracle,
	"internal/serverless/sim.go (*simulation).checkIdle":                                        classOracle,
	"internal/serverless/sim.go (*simulation).checkLive":                                        classOracle,
	"internal/serverless/sim.go (*simulation).dispatchIdle":                                     classOracle,
	"internal/serverless/sim.go (*simulation).pullArrival":                                      classOracle,
	"internal/serverless/sim.go (*simulation).run: if s.opts.referenceLoop && ev.inst != nil {": classOracle,

	// Known: §4's correction search. Validation forwarding never finds a
	// mismatch on the zoo, so only the tricky-seed tests reach it;
	// ROADMAP direction 13 decides its fate.
	"internal/medusa/correct.go (*Artifact).PointerGroups":      classKnown,
	"internal/medusa/correct.go (*Artifact).ValidateAndCorrect": classKnown,
	"internal/medusa/correct.go (*Artifact).setGroupPointer":    classKnown,

	// Known: the indirect-pointer scan finds no pointer-valued permanent
	// buffer on the zoo; only fixtures that plant one reach a hit.
	"internal/medusa/indirect.go IndirectPointerWarning.String": classKnown,
	"internal/medusa/indirect.go ScanIndirectPointers":          classKnown,

	// Known: the modelled CUDA stream, event and capture-invalidation API
	// (the functions carry testonly allow directives). The engine never
	// synchronizes or records events inside a capture.
	"internal/cuda/errors.go (*CaptureInvalidatedError).Error": classKnown,
	"internal/cuda/graph.go (*GraphExec).Launch":               classKnown,
	"internal/cuda/graph.go (*Process).NewEvent":               classKnown,
	"internal/cuda/graph.go (*Stream).RecordEvent":             classKnown,
	"internal/cuda/graph.go (*Stream).Synchronize":             classKnown,
	"internal/cuda/graph.go (*Stream).WaitEvent":               classKnown,
	"internal/cuda/graph.go NewGraph":                          classKnown,
	"internal/cuda/process.go (*Process).DeviceSynchronize":    classKnown,
	"internal/cuda/process.go (*Process).NewStream":            classKnown,
	"internal/cuda/process.go (*Process).ensureModuleLoaded":   classKnown,

	// Known: the bias-add kernel body runs only in functional mode, on a
	// test model family that has a bias; production runs it cost-only.
	"internal/kernels/exported.go kBiasAdd": classKnown,

	// Known: the bench calls NewProfile only in its traced pass
	// (-trace 1); the production set runs the bench untraced.
	"internal/serverless/profile.go NewProfile": classKnown,

	// Known: the default store for callers that pass none; only tests
	// omit it.
	"internal/engine/engine.go Options.withDefaults":                classKnown,
	"internal/engine/offline.go RunOffline: if opts.Store == nil {": classKnown,

	// Sched: reached or not depending on goroutine scheduling.
	"internal/serverless/readahead.go (*readAhead).produce: case <-ra.stop:": classSched,

	// Unexercised: fault, error, guard and edge paths no production
	// command takes yet (ROADMAP directions 2 and 7), and the String and
	// Error renderings they would print.
	"internal/artifactcache/cache.go (*NodeCache).Discard":            classUnexercised,
	"internal/artifactcache/cache.go (*NodeCache).Fetch":              classUnexercised,
	"internal/artifactcache/cache.go (*NodeCache).FetchPair":          classUnexercised,
	"internal/artifactcache/cache.go (*NodeCache).Locate":             classUnexercised,
	"internal/artifactcache/cache.go Stats.HitRate":                   classUnexercised,
	"internal/artifactcache/cache.go Tier.String":                     classUnexercised,
	"internal/artifactcache/policy.go CostAwareWeight":                classUnexercised,
	"internal/artifactcache/policy.go PolicyKind.String":              classUnexercised,
	"internal/autoscale/autoscale.go (*Observation).target":           classUnexercised,
	"internal/autoscale/autoscale.go (*Predictive).Retain":            classUnexercised,
	"internal/autoscale/autoscale.go (*Reactive).Name":                classUnexercised,
	"internal/autoscale/autoscale.go PredictiveConfig.withDefaults":   classUnexercised,
	"internal/cuda/dot.go (*Graph).DOT":                               classUnexercised,
	"internal/cuda/dot.go (*Process).KernelResolver":                  classUnexercised,
	"internal/cuda/errors.go (*ParamMismatchError).Error":             classUnexercised,
	"internal/cuda/errors.go (*UnknownKernelError).Error":             classUnexercised,
	"internal/cuda/graph.go (*GraphExec).Graph":                       classUnexercised,
	"internal/cuda/runtime.go (*Runtime).MustRegister":                classUnexercised,
	"internal/cuda/value.go ParamKind.Size":                           classUnexercised,
	"internal/cuda/value.go ParamKind.String":                         classUnexercised,
	"internal/cuda/value.go Value.put":                                classUnexercised,
	"internal/dl/dl.go (*Registry).FindSymbol":                        classUnexercised,
	"internal/dl/linker.go (*NotFoundError).Error":                    classUnexercised,
	"internal/engine/capture.go maxInt":                               classUnexercised,
	"internal/engine/checkpoint.go TakeCheckpoint":                    classUnexercised,
	"internal/engine/costmodel.go profileTokens":                      classUnexercised,
	"internal/engine/engine.go (*Instance).GraphByBatch":              classUnexercised,
	"internal/engine/engine.go ParseStrategy":                         classUnexercised,
	"internal/engine/engine.go Strategy.String":                       classUnexercised,
	"internal/engine/medusarestore.go (*Instance).firstLayerTrigger":  classUnexercised,
	"internal/engine/medusarestore.go (*Instance).handwrittenTrigger": classUnexercised,
	"internal/engine/offline.go RunOffline":                           classUnexercised,
	"internal/engine/offline.go StoreResolver":                        classUnexercised,
	"internal/engine/offline.go validateArtifact":                     classUnexercised,
	"internal/engine/serve.go (*Instance).EnsureGraphCaptured":        classUnexercised,
	"internal/engine/serve.go (*Instance).Generate":                   classUnexercised,
	"internal/engine/serve.go (*Instance).GraphBatch":                 classUnexercised,
	"internal/engine/serve.go (*Instance).PrefillDuration":            classUnexercised,
	"internal/engine/serve.go (*Instance).stepToken":                  classUnexercised,
	"internal/engine/stages.go (*Instance).allocIO":                   classUnexercised,
	"internal/engine/tp.go (*TPResult).allReduceCost":                 classUnexercised,
	"internal/experiments/ablations.go runAblationIndexMatching":      classUnexercised,
	"internal/experiments/ablations.go runAblationTriggering":         classUnexercised,
	"internal/experiments/context.go (*Context).PrefetchArtifacts":    classUnexercised,
	"internal/experiments/context.go (*Context).RenderPhases":         classUnexercised,
	"internal/experiments/context.go Run":                             classUnexercised,
	"internal/experiments/context.go register":                        classUnexercised,
	"internal/faults/errors.go (*ArtifactCorruptError).Error":         classUnexercised,
	"internal/faults/errors.go (*FetchTimeoutError).Error":            classUnexercised,
	"internal/faults/errors.go (*TemplateMismatchError).Error":        classUnexercised,
	"internal/faults/errors.go (*TemplateMissingError).Error":         classUnexercised,
	"internal/faults/errors.go DegradeReason":                         classUnexercised,
	"internal/faults/faults.go (*Duration).UnmarshalJSON":             classUnexercised,
	"internal/faults/faults.go (*Injector).Backoff":                   classUnexercised,
	"internal/faults/faults.go (*Injector).CrashSchedule":             classUnexercised,
	"internal/faults/faults.go (*Injector).Inject":                    classUnexercised,
	"internal/faults/faults.go (*Injector).Retry":                     classUnexercised,
	"internal/faults/faults.go (*Injector).TimeoutDelay":              classUnexercised,
	"internal/faults/faults.go Plan.Spec":                             classUnexercised,
	"internal/gpu/alloc.go (*Allocator).alloc":                        classUnexercised,
	"internal/gpu/alloc.go (*Allocator).findContaining":               classUnexercised,
	"internal/gpu/alloc.go (*BadFreeError).Error":                     classUnexercised,
	"internal/gpu/alloc.go (*OutOfMemoryError).Error":                 classUnexercised,
	"internal/gpu/device.go (*Device).FindBuffer":                     classUnexercised,
	"internal/kernels/kernels.go GemmBucket":                          classUnexercised,
	"internal/kernels/kernels.go GemmKernelName":                      classUnexercised,
	"internal/kernels/kernels.go GemmModuleName":                      classUnexercised,
	"internal/kvcache/kvcache.go (*OutOfBlocksError).Error":           classUnexercised,
	"internal/kvcache/kvcache.go NumBlocksFor":                        classUnexercised,
	"internal/medusa/analyze.go analyzeGraph":                         classUnexercised,
	"internal/medusa/delta.go deltaApply":                             classUnexercised,
	"internal/medusa/index.go (*TraceIndex).BackwardMatch":            classUnexercised,
	"internal/medusa/index.go (*TraceIndex).FirstMatch":               classUnexercised,
	"internal/medusa/index.go (*TraceIndex).segment":                  classUnexercised,
	"internal/medusa/index.go newTraceIndex":                          classUnexercised,
	"internal/medusa/recorder.go (*Recorder).LabelLastAlloc":          classUnexercised,
	"internal/medusa/recorder.go (*Recorder).MarkCaptureStageBegin":   classUnexercised,
	"internal/medusa/restore.go (*Restorer).onAlloc":                  classUnexercised,
	"internal/medusa/restore.go (*Restorer).resolveKernel":            classUnexercised,
	"internal/medusa/template.go (*Artifact).DeltaSectionSizes":       classUnexercised,
	"internal/medusa/template.go (*wireReader).exact":                 classUnexercised,
	"internal/medusa/template.go DecodeTemplate":                      classUnexercised,
	"internal/medusa/template.go corruptDeltaError":                   classUnexercised,
	"internal/medusa/template.go decodeDeltaBody":                     classUnexercised,
	"internal/medusa/template.go parseDeltaBody":                      classUnexercised,
	"internal/medusa/template.go verifyDeltaSectionCRCs":              classUnexercised,
	"internal/medusa/wire.go (*Artifact).SectionSizes":                classUnexercised,
	"internal/medusa/wire.go (*Artifact).parseSection":                classUnexercised,
	"internal/medusa/wire.go (*wireReader).blob":                      classUnexercised,
	"internal/medusa/wire.go (*wireReader).capFor":                    classUnexercised,
	"internal/medusa/wire.go (*wireReader).fail":                      classUnexercised,
	"internal/medusa/wire.go (*wireReader).take":                      classUnexercised,
	"internal/medusa/wire.go (*wireReader).u32":                       classUnexercised,
	"internal/medusa/wire.go (*wireReader).u64":                       classUnexercised,
	"internal/medusa/wire.go (*wireReader).u8":                        classUnexercised,
	"internal/medusa/wire.go (*wireReader).view":                      classUnexercised,
	"internal/medusa/wire.go DecodeResolved":                          classUnexercised,
	"internal/medusa/wire.go corruptError":                            classUnexercised,
	"internal/medusa/wire.go parseBody":                               classUnexercised,
	"internal/medusa/wire.go parseGraph":                              classUnexercised,
	"internal/medusa/wire.go scanGraph":                               classUnexercised,
	"internal/medusa/wire.go verifySectionCRCs":                       classUnexercised,
	"internal/metrics/metrics.go (*Sample).AddAll":                    classUnexercised,
	"internal/metrics/metrics.go (*Sample).FractionBelow":             classUnexercised,
	"internal/metrics/metrics.go (*Sample).Histogram":                 classUnexercised,
	"internal/metrics/metrics.go (*Sample).Max":                       classUnexercised,
	"internal/metrics/metrics.go (*Sample).Mean":                      classUnexercised,
	"internal/metrics/metrics.go (*Sample).Percentile":                classUnexercised,
	"internal/metrics/metrics.go (*Sample).Quantile":                  classUnexercised,
	"internal/metrics/metrics.go (*Sample).Summary":                   classUnexercised,
	"internal/metrics/metrics.go (*Sample).reservoir":                 classUnexercised,
	"internal/metrics/metrics.go MeanCI":                              classUnexercised,
	"internal/metrics/metrics.go Reduction":                           classUnexercised,
	"internal/metrics/metrics.go Throughput":                          classUnexercised,
	"internal/model/model.go Config.PaddedSizes":                      classUnexercised,
	"internal/obs/obs.go (*Span).End":                                 classUnexercised,
	"internal/obs/obs.go (*Tracer).Len":                               classUnexercised,
	"internal/obs/obs.go (*Tracer).RecordSpan":                        classUnexercised,
	"internal/obs/obs.go (*Tracer).Spans":                             classUnexercised,
	"internal/obs/obs.go (*Tracer).Tracks":                            classUnexercised,
	"internal/obs/obs.go compareAttrs":                                classUnexercised,
	"internal/obs/phases.go (*PhaseBreakdown).AddExclusive":           classUnexercised,
	"internal/obs/phases.go (*Timeline).Record":                       classUnexercised,
	"internal/obs/phases.go Timeline.Total":                           classUnexercised,
	"internal/obs/registry.go (*Counter).Add":                         classUnexercised,
	"internal/obs/registry.go (*Registry).Render":                     classUnexercised,
	"internal/plot/plot.go (*Bar).Render":                             classUnexercised,
	"internal/plot/plot.go (*Line).Render":                            classUnexercised,
	"internal/plot/plot.go (*Stacked).Render":                         classUnexercised,
	"internal/plot/plot.go Gantt":                                     classUnexercised,
	"internal/prof/prof.go Start":                                     classUnexercised,
	"internal/replicate/replicate.go Run":                             classUnexercised,
	"internal/router/router.go (*LeastLoaded).Name":                   classUnexercised,
	"internal/sched/sched.go (*Scheduler).Drain":                      classUnexercised,
	"internal/sched/sched.go (*Scheduler).FinishRun":                  classUnexercised,
	"internal/sched/sched.go (*Scheduler).Plan":                       classUnexercised,
	"internal/sched/sched.go (*Scheduler).Reset":                      classUnexercised,
	"internal/sched/sched.go (*Scheduler).admissionChunk":             classUnexercised,
	"internal/sched/sched.go (*Scheduler).admitWaiting":               classUnexercised,
	"internal/sched/sched.go (*Scheduler).continuePrefills":           classUnexercised,
	"internal/serverless/arrivals.go (*mergeArrivals).Next":           classUnexercised,
	"internal/serverless/arrivals.go MergeArrivals":                   classUnexercised,
	"internal/serverless/fleet.go (*FleetResult).SLOAttainment":       classUnexercised,
	"internal/serverless/fleet.go (*Work).Render":                     classUnexercised,
	"internal/serverless/fleet.go (*simulation).prepare":              classUnexercised,
	"internal/serverless/fleet.go Fleet.withDefaults":                 classUnexercised,
	"internal/serverless/readahead.go (*readAhead).Err":               classUnexercised,
	"internal/serverless/readahead.go (*readAhead).nextBlock":         classUnexercised,
	"internal/serverless/readahead.go (*readAhead).produce":           classUnexercised,
	"internal/serverless/serverless.go (*ConfigError).Error":          classUnexercised,
	"internal/serverless/serverless.go CacheSpec.ColdFetchBytes":      classUnexercised,
	"internal/serverless/serverless.go Config.withDefaults":           classUnexercised,
	"internal/serverless/serverless.go RunMulti":                      classUnexercised,
	"internal/serverless/serverless.go tpTimeline":                    classUnexercised,
	"internal/serverless/sim.go (*instState).nextBoundary":            classUnexercised,
	"internal/serverless/sim.go (*instState).pushedBack":              classUnexercised,
	"internal/serverless/sim.go (*simulation).candidate":              classUnexercised,
	"internal/serverless/sim.go (*simulation).complete":               classUnexercised,
	"internal/serverless/sim.go (*simulation).crashNode":              classUnexercised,
	"internal/serverless/sim.go (*simulation).launchOne":              classUnexercised,
	"internal/serverless/sim.go (*simulation).run":                    classUnexercised,
	"internal/serverless/sim.go (*simulation).traceRound":             classUnexercised,
	"internal/serverless/sim.go (*simulation).verifyRestore":          classUnexercised,
	"internal/serverless/sim.go compareRuns":                          classUnexercised,
	"internal/serverless/sim.go localityScore":                        classUnexercised,
	"internal/serverless/sim.go pushOrder":                            classUnexercised,
	"internal/storage/storage.go (*Store).ChargeRead":                 classUnexercised,
	"internal/storage/storage.go (*Store).Get":                        classUnexercised,
	"internal/storage/storage.go (*Store).Peek":                       classUnexercised,
	"internal/tokenizer/tokenizer.go (*Tokenizer).Encode":             classUnexercised,
	"internal/vclock/vclock.go (*Clock).Advance":                      classUnexercised,
	"internal/workload/diurnal.go (*diurnalSource).Next":              classUnexercised,
	"internal/workload/diurnal.go DiurnalConfig.withDefaults":         classUnexercised,
	"internal/workload/diurnal.go NewDiurnal":                         classUnexercised,
	"internal/workload/source.go (*burstySource).advanceExt":          classUnexercised,
	"internal/workload/source.go (*poissonSource).candidate":          classUnexercised,
	"internal/workload/tracefile.go ReadTrace":                        classUnexercised,
}

// block is one coverage block of a profile.
type block struct {
	file                       string // relative to the module root
	line, col, endLine, endCol int
	stmts                      int
}

// TestReach writes or checks the production-reachability report. It
// reads the profiles `make reach-profiles` leaves in $MEDUSA_REACH:
// prod.out (the production command set) and test*.out (the tests). With
// MEDUSA_REACH_UPDATE=1 it rewrites testdata/reach.txt; otherwise it is
// the ratchet, failing if a package's test-only or never-run count rose
// above the checked-in report's or a listed block has no class.
func TestReach(t *testing.T) {
	dir := os.Getenv("MEDUSA_REACH")
	if dir == "" {
		t.Skip("set MEDUSA_REACH to the profile directory (make reach, make reach-check)")
	}
	prod := readProfiles(t, filepath.Join(dir, "prod.out"))
	testFiles, err := filepath.Glob(filepath.Join(dir, "test*.out"))
	if err != nil || len(testFiles) == 0 {
		t.Fatalf("no test profiles in %s: %v", dir, err)
	}
	tests := readProfiles(t, testFiles...)

	r := analyzeReach(t, prod, tests)
	if len(r.unclassified) > 0 {
		t.Errorf("%d listed blocks have no class; add them to reachClasses:\n%s",
			len(r.unclassified), strings.Join(r.unclassified, "\n"))
	}
	if os.Getenv("MEDUSA_REACH_UPDATE") != "" {
		for key := range reachClasses {
			if !r.used[key] {
				t.Errorf("reachClasses entry %q matches no listed block; delete it", key)
			}
		}
		if err := os.WriteFile(reachFile, []byte(r.render()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	old, err := os.ReadFile(reachFile)
	if err != nil {
		t.Fatal(err)
	}
	was := parseCounts(t, string(old))
	for _, pkg := range r.pkgs {
		c, prev := r.counts[pkg], was[pkg]
		if c.testOnly > prev.testOnly || c.never > prev.never {
			t.Errorf("%s: test-only %d (was %d), never-run %d (was %d); reach it from production, "+
				"delete it, or raise the count with `make reach` and say why in CHANGES.md",
				pkg, c.testOnly, prev.testOnly, c.never, prev.never)
		}
		if c.testOnly < prev.testOnly || c.never < prev.never {
			t.Logf("%s: counts fell (test-only %d→%d, never-run %d→%d); `make reach` lowers the ratchet",
				pkg, prev.testOnly, c.testOnly, prev.never, c.never)
		}
	}
}

// readProfiles merges text coverage profiles: a block is reached if any
// profile reached it. Only internal/ outside internal/lint is kept.
func readProfiles(t *testing.T, paths ...string) map[block]bool {
	t.Helper()
	reached := make(map[block]bool)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "mode:") {
				continue
			}
			b, count, err := parseBlock(line)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !strings.HasPrefix(b.file, "internal/") || strings.HasPrefix(b.file, "internal/lint/") {
				continue
			}
			reached[b] = reached[b] || count > 0
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return reached
}

// parseBlock parses one profile line, "file:l.c,l.c stmts count".
func parseBlock(line string) (block, int, error) {
	var b block
	colon := strings.LastIndexByte(line, ':')
	if colon < 0 {
		return b, 0, fmt.Errorf("malformed profile line %q", line)
	}
	fields := strings.Fields(line[colon+1:])
	if len(fields) != 3 {
		return b, 0, fmt.Errorf("malformed profile line %q", line)
	}
	b.file = strings.TrimPrefix(line[:colon], modulePrefix)
	if _, err := fmt.Sscanf(fields[0], "%d.%d,%d.%d", &b.line, &b.col, &b.endLine, &b.endCol); err != nil {
		return b, 0, fmt.Errorf("%q: %v", line, err)
	}
	var err error
	if b.stmts, err = strconv.Atoi(fields[1]); err != nil {
		return b, 0, err
	}
	count, err := strconv.Atoi(fields[2])
	return b, count, err
}

// counts are one package's statement counts.
type counts struct{ total, testOnly, never, sched int }

// reachReport is the analysis TestReach renders or checks.
type reachReport struct {
	pkgs         []string
	counts       map[string]*counts
	listed       []string // rendered block lines
	unclassified []string
	used         map[string]bool // reachClasses keys that matched
}

// analyzeReach classifies every block, counts each package's reach and
// lists the test-only and never-run blocks that are not error returns.
func analyzeReach(t *testing.T, prod, tests map[block]bool) *reachReport {
	t.Helper()
	r := &reachReport{counts: make(map[string]*counts), used: make(map[string]bool)}
	blocks := make([]block, 0, len(tests))
	for b := range tests {
		blocks = append(blocks, b)
	}
	for b := range prod {
		if _, ok := tests[b]; !ok {
			blocks = append(blocks, b)
		}
	}
	sort.Slice(blocks, func(i, j int) bool {
		a, b := blocks[i], blocks[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.col < b.col
	})
	files := make(map[string]*sourceFile)
	for _, b := range blocks {
		pkg := filepath.Dir(b.file)
		c := r.counts[pkg]
		if c == nil {
			c = &counts{}
			r.counts[pkg] = c
			r.pkgs = append(r.pkgs, pkg)
		}
		c.total += b.stmts
		src := files[b.file]
		if src == nil {
			src = parseSource(t, b.file)
			files[b.file] = src
		}
		fn, text, errReturn := src.describe(b)
		class, key := lookupClass(b.file, fn, text)
		reach := reachNever
		switch {
		case class == classSched:
			reach = reachSched
			c.sched += b.stmts
		case prod[b]:
			continue
		case tests[b]:
			reach = reachTestOnly
			c.testOnly += b.stmts
		default:
			c.never += b.stmts
		}
		if errReturn && class != classSched {
			continue
		}
		line := fmt.Sprintf("%s:%d\t%s\t%d\t%s\t%s", b.file, b.line, fn, b.stmts, reach, class)
		r.listed = append(r.listed, line)
		if class == "" {
			r.unclassified = append(r.unclassified, line+"\t"+text)
		} else {
			r.used[key] = true
		}
	}
	sort.Strings(r.pkgs)
	return r
}

// lookupClass returns the class reachClasses gives a block, and the
// key it came from: the most specific of "file function: text",
// "file function" and "file".
func lookupClass(file, fn, text string) (string, string) {
	for _, key := range []string{file + " " + fn + ": " + text, file + " " + fn, file} {
		if c := reachClasses[key]; c != "" {
			return c, key
		}
	}
	return "", ""
}

// sourceFile is one parsed Go file.
type sourceFile struct {
	fset  *token.FileSet
	file  *ast.File
	lines []string
}

func parseSource(t *testing.T, path string) *sourceFile {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &sourceFile{fset: fset, file: f, lines: strings.Split(string(src), "\n")}
}

// describe returns the function b lies in, b's first source line
// trimmed, and whether b is an error return: its only statement returns
// a non-nil value as the error result of a function whose last result
// is an error.
func (s *sourceFile) describe(b block) (fn, text string, errReturn bool) {
	text = strings.TrimSpace(s.lines[b.line-1])
	var inner *ast.FuncType // the innermost function enclosing b
	var stmts []ast.Stmt    // the statements that start in b, outermost only
	ast.Inspect(s.file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		p, e := s.fset.Position(n.Pos()), s.fset.Position(n.End())
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			// Containers, not statements of b.
		case ast.Stmt:
			if after(p.Line, p.Column, b.line, b.col) && !after(p.Line, p.Column, b.endLine, b.endCol) {
				stmts = append(stmts, n.(ast.Stmt))
				return false
			}
		}
		if !after(b.endLine, b.endCol, p.Line, p.Column) || !after(e.Line, e.Column, b.line, b.col) {
			return false // no overlap with b
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn, inner = funcName(n), n.Type
		case *ast.FuncLit:
			inner = n.Type
		}
		return true
	})
	if fn == "" {
		fn = "-"
	}
	if len(stmts) != 1 || inner == nil {
		return fn, text, false
	}
	ret, ok := stmts[0].(*ast.ReturnStmt)
	return fn, text, ok && isErrReturn(ret, inner)
}

// after reports whether position (l1, c1) is at or after (l2, c2).
func after(l1, c1, l2, c2 int) bool {
	return l1 > l2 || l1 == l2 && c1 >= c2
}

// funcName renders a declaration's name as "Recv.Name" or "(*Recv).Name".
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	typ := d.Recv.List[0].Type
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	switch r := typ.(type) {
	case *ast.StarExpr:
		x := r.X
		if idx, ok := x.(*ast.IndexExpr); ok {
			x = idx.X
		}
		return fmt.Sprintf("(*%s).%s", x.(*ast.Ident).Name, d.Name.Name)
	case *ast.Ident:
		return r.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// isErrReturn reports whether ret returns a non-nil error as the last
// result of a function whose last result type is error.
func isErrReturn(ret *ast.ReturnStmt, fn *ast.FuncType) bool {
	if fn.Results == nil || len(ret.Results) == 0 {
		return false
	}
	res := fn.Results.List
	if id, ok := res[len(res)-1].Type.(*ast.Ident); !ok || id.Name != "error" {
		return false
	}
	id, ok := ret.Results[len(ret.Results)-1].(*ast.Ident)
	return !ok || id.Name != "nil"
}

// render formats the report.
func (r *reachReport) render() string {
	var sb strings.Builder
	sb.WriteString(`# Production reachability of internal/ (internal/lint excluded), written
# by ` + "`make reach`" + ` (reach_test.go; DESIGN.md §6). A block is production if
# a production command reached it, test-only if only tests did, and
# never-run otherwise; sched blocks are reached or not depending on
# goroutine scheduling and are counted apart. Counts are statements.
#
# package	statements	test-only	never-run	sched
`)
	var sum counts
	for _, pkg := range r.pkgs {
		c := r.counts[pkg]
		fmt.Fprintf(&sb, "%s\t%d\t%d\t%d\t%d\n", pkg, c.total, c.testOnly, c.never, c.sched)
		sum.total += c.total
		sum.testOnly += c.testOnly
		sum.never += c.never
		sum.sched += c.sched
	}
	fmt.Fprintf(&sb, "total\t%d\t%d\t%d\t%d\n", sum.total, sum.testOnly, sum.never, sum.sched)
	sb.WriteString(`
# Every test-only, never-run or sched block that is not an error return.
# block	function	statements	reach	class
`)
	for _, l := range r.listed {
		sb.WriteString(l + "\n")
	}
	return sb.String()
}

// parseCounts reads the package rows of a rendered report.
func parseCounts(t *testing.T, report string) map[string]counts {
	t.Helper()
	out := make(map[string]counts)
	for _, line := range strings.Split(report, "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 || strings.HasPrefix(line, "#") || strings.Contains(f[0], ":") {
			continue
		}
		var c counts
		for i, p := range []*int{&c.total, &c.testOnly, &c.never, &c.sched} {
			n, err := strconv.Atoi(f[i+1])
			if err != nil {
				t.Fatalf("%s: malformed count row %q", reachFile, line)
			}
			*p = n
		}
		out[f[0]] = c
	}
	return out
}
