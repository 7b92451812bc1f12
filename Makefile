# Convenience targets for the Medusa reproduction.

GO ?= go

.PHONY: all check build fmt vet lint docs linkcheck loc test test-race short bench bench-layers bench-smoke batch-smoke fleet-smoke faults-smoke figures results-check bench-digests examples fuzz cover reach reach-check reach-profiles trace-demo clean

all: build test

# One-stop verification: compile, check formatting, vet, lint the
# determinism invariants, check the documentation's relative links, full
# tests, race-detect everything, then the batched-execution and
# fleet-control-plane smokes.
check: build fmt vet lint linkcheck test test-race batch-smoke fleet-smoke

build:
	$(GO) build ./...

# Formatting gate: every tracked Go file must be gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')) && \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# medusalint enforces the simulator's determinism, capture-safety, and
# pooled-state invariants: the syntactic passes (wallclock, seededrand,
# maporder, capturesync) plus the flow-aware CFG passes (kvpair,
# poolescape, spanpair), and the module-wide testonly check (no
# function only tests call, unless a //medusalint:allow testonly(reason)
# directive keeps it); see DESIGN.md §8 for the invariant-to-analyzer mapping. The generous wall-clock budget is a
# tripwire so the CFG passes can't silently blow up CI time (timeout
# exits 124 on breach).
LINT_BUDGET ?= 180s
lint:
	timeout $(LINT_BUDGET) $(GO) run ./cmd/medusalint ./...

# Godoc gate: fail on any undocumented exported identifier in the
# packages whose APIs FAILURES.md, DESIGN.md and docs/ARTIFACT_FORMAT.md
# document.
docs:
	$(GO) run ./cmd/medusa-doccheck ./internal/faults ./internal/artifactcache \
		./internal/cluster ./internal/serverless ./internal/sched ./internal/cliconfig \
		./internal/eventq ./internal/workload ./internal/replicate \
		./internal/autoscale ./internal/router ./internal/metrics \
		./internal/medusa ./internal/storage ./internal/engine

# Doc-link gate: every relative markdown link in the top-level docs and
# docs/ must resolve to an existing file (fragments stripped, absolute
# URLs skipped).
linkcheck:
	$(GO) run ./cmd/medusa-linkcheck README.md DESIGN.md EXPERIMENTS.md \
		FAILURES.md ROADMAP.md CHANGES.md docs

# Count the non-test Go lines outside the benchmark module (bench/) and
# its build directory (.bench_build/): the code size that ROADMAP.md's
# "least code" aim scores.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' \
		-not -path './.bench_build/*' -not -path './.git/*' -print0 | \
		xargs -0 cat | wc -l

test:
	$(GO) test ./...

# Race-detect the whole tree: the parallel offline pipeline (analysis
# worker pool, validation forwarding shards, artifact prefetch) and the
# traced simulation stack are the interesting packages, but nothing is
# exempt.
test-race:
	$(GO) test -race ./...

# Skip the long trace simulations and CLI integration tests.
short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Per-layer benchmarks of the cold-start, serving and control-plane
# paths whose zero-allocation tests pin them (ROADMAP direction 10):
# the event queue's push/pop and handle reschedule/cancel, AddExclusive
# on a Medusa launch, FetchPair by tier, a sized KV sequence's
# lifetime, Plan/FinishRun at a mean and a full batch, a device
# Malloc/Free cycle, Ranker.Rank over a fleet-diurnal slate, reactive
# and predictive Desired, and Next on the Poisson, bursty and diurnal
# sources; plus capture recording and a
# 512-node graph replay, the 1k-node artifact encode, decode (plain and
# template-resolved), analysis, restore and first-launch build, whose
# allocations and bytes TestCodecAllocCeilings bounds, the v3 codec on
# the 1k-node graph captured at 35 batches, and the codec on two zoo
# artifacts (BenchmarkCodecZoo: many kernel names, real delta-index
# load). Ten counts each, for benchstat.
LAYER_BENCH = BenchmarkQueuePushPop|BenchmarkQueueSchedule|BenchmarkAddExclusive|BenchmarkFetchPair|BenchmarkSizedSeqLifetime|BenchmarkPlanFinishRun|BenchmarkMallocFree$$|BenchmarkRankDiurnalSlate|BenchmarkReactiveDesired|BenchmarkPredictiveDesired|BenchmarkSourceNext|BenchmarkCaptureRecord|BenchmarkGraphReplay512Nodes|BenchmarkEncode1kNodes|BenchmarkDecode1kNodes|BenchmarkDecodeResolved1kNodes|BenchmarkEncodeDelta35x1kNodes|BenchmarkDecodeResolved35x1kNodes|BenchmarkAnalyze1kNodes|BenchmarkRestore1kNodes|BenchmarkFirstLaunch1kNodes|BenchmarkCodecZoo
bench-layers:
	$(GO) test -run xxx -bench '$(LAYER_BENCH)' -count 10 -benchmem \
		./internal/eventq ./internal/obs ./internal/artifactcache ./internal/kvcache ./internal/sched ./internal/gpu \
		./internal/router ./internal/autoscale ./internal/workload ./internal/cuda ./internal/medusa ./internal/engine

# Seconds-scale benchmark gate for CI: the seeded eviction-policy sweep
# (lru/lfu/costaware on one 2-node Zipf workload), a two-node fleet
# simulation exercising the tiered artifact cache end to end, and the
# simulator-core scale smoke — one million streamed requests under a
# wall-clock budget with an allocs/request ceiling checked in at
# internal/serverless/testdata/max_allocs_per_request, an autoscale
# Desired-calls/request ceiling at max_desired_calls_per_request, a
# popped-events/request ceiling at max_events_per_request and a
# dispatch-steps/request ceiling at max_dispatch_steps_per_request.
bench-smoke:
	$(GO) run ./cmd/medusa-bench -exp ext-cache-policies
	$(GO) run ./cmd/medusa-simulate -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-policy costaware -cache-ram 3 -cache-ssd 6 -idle 200ms -rps 3 -duration 10
	MEDUSA_SCALE_SMOKE=1 $(GO) test -run TestScaleSmoke1M -count=1 -v ./internal/serverless/

# Seconds-scale continuous-batching gate: a seeded 100k-request fleet
# run in batched execution mode under a wall-clock budget, an
# allocs/request ceiling checked in at
# internal/serverless/testdata/max_allocs_per_request_batched and a
# bytes/request ceiling at max_bytes_per_request_batched, plus the
# autoscale Desired-calls/request ceiling.
batch-smoke:
	MEDUSA_BATCH_SMOKE=1 $(GO) test -run TestBatchSmoke100k -count=1 -v ./internal/serverless/

# Seconds-scale fleet-control-plane gate: a seeded ~100k-request
# diurnal multi-tenant run under predictive autoscaling and score
# routing, asserting SLO attainment and node-seconds stay inside
# checked bounds, Desired calls/request under
# internal/serverless/testdata/max_desired_calls_per_request_predictive,
# routed dispatch steps/request under
# max_dispatch_steps_per_request_routed and iteration-end events/request
# (coalesced batched decode runs) under
# max_iteration_ends_per_request_batched.
fleet-smoke:
	MEDUSA_FLEET_SMOKE=1 $(GO) test -run TestFleetSmoke100k -count=1 -v ./internal/serverless/

# Seconds-scale fault-injection gate: the seeded probability sweep
# (every run must survive every injected fault — FAILURES.md) plus a
# crash-preset fleet simulation exercising requeue and lost tiers.
faults-smoke:
	$(GO) run ./cmd/medusa-bench -exp ext-fault-sweep
	$(GO) run ./cmd/medusa-simulate -faults crash -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-ram 3 -cache-ssd 6 -idle 250ms -rps 3 -duration 15
	$(GO) run ./cmd/medusa-simulate -model Qwen1.5-0.5B -faults heavy -idle 300ms -rps 0.5 -duration 120

# Regenerate every table/figure into results/, mirroring the original
# artifact's `python scripts/<exp>.py > results/<Figure>` workflow.
figures:
	$(GO) run ./cmd/medusa-bench -all -out results

# Zero-drift gate: regenerate every results/ file and the trace demo
# into a temporary directory and diff it against the checked-in copies.
# Simulated outputs are deterministic, so any difference is a behavior
# change; the perf-*.txt files hold wall-clock timings and are skipped.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/medusa-bench -all -out "$$tmp" >/dev/null && \
	$(GO) run ./cmd/medusa-simulate $(TRACE_DEMO_FLAGS) -trace "$$tmp/trace-demo.json" >/dev/null && \
	diff -r -x 'perf-*.txt' "$$tmp" results && echo "results-check: no drift"

# Zero-drift gate for the benchmark: run each bench workload for a
# tenth of a second at seeds 1 and 7 and diff the output digests it
# prints against the checked-in testdata/bench-digests.txt. A digest
# fingerprints a run's rendered output, so any difference is a
# behavior change. About 20 s with a warm build cache.
BENCH_DIGEST_WORKLOADS = fleet-churn fleet-diurnal pool-burst offline-zoo
bench-digests:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	for w in $(BENCH_DIGEST_WORKLOADS); do for s in 1 7; do \
		out=$$(bash bench/run.sh -workload $$w -seed $$s -seconds 0.1) || exit 1; \
		echo "$$out" | grep '/digest ' | sed "s/^/seed $$s /"; \
	done; done > "$$tmp" && \
	diff testdata/bench-digests.txt "$$tmp" && echo "bench-digests: no drift"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/graph-materialize
	$(GO) run ./examples/serverless-burst
	$(GO) run ./examples/batch-sweep
	$(GO) run ./examples/multimodel

fuzz:
	$(GO) test -run xxx -fuzz FuzzDecode$$ -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDecodeCorrupted -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzArtifactRoundTrip -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzTemplateRoundTrip -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDeltaCorrupted -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDecodeResolved -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDecodeTemplate -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDeltaApply -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDeltaEncodeOracle -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzParseGraphOracle -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzEncodeDecode -fuzztime 30s ./internal/tokenizer/
	$(GO) test -run xxx -fuzz FuzzManagerOps -fuzztime 30s ./internal/kvcache/
	$(GO) test -run xxx -fuzz FuzzQueueOps -fuzztime 30s ./internal/eventq/
	$(GO) test -run xxx -fuzz FuzzAddExclusive -fuzztime 30s ./internal/obs/
	$(GO) test -run xxx -fuzz FuzzDecodeRunMatchesSteps -fuzztime 30s ./internal/sched/
	$(GO) test -run xxx -fuzz FuzzSourceConfigs -fuzztime 30s ./internal/workload/

cover:
	$(GO) test -cover ./internal/...

# Production reachability (DESIGN.md §6): build every command, example
# and the bench with coverage instrumentation, run the production
# command set under GOCOVERDIR, run the tests under coverage, and hand
# both sides to TestReach (reach_test.go), which classifies every
# internal/ block as production, test-only or never-run. `make reach`
# rewrites testdata/reach.txt; `make reach-check` is the ratchet, failing
# when a package's test-only or never-run count rises or a listed block
# has no class. Note: the bench needs an explicit -coverpkg that names
# its own main package, or its binary writes no coverage data at all.
# GOMAXPROCS is pinned because worker counts, and so the branches that
# size them, follow it.
REACH_DIR = .reach
REACH_BIN = $(abspath $(REACH_DIR))/bin
REACH_TMP = $(abspath $(REACH_DIR))/tmp
REACH_RUN = GOMAXPROCS=2 GOCOVERDIR=$(abspath $(REACH_DIR))/prod
reach-profiles:
	rm -rf $(REACH_DIR) && mkdir -p $(REACH_DIR)/prod $(REACH_DIR)/test $(REACH_TMP)
	$(GO) build -cover -o $(REACH_BIN)/ ./cmd/... ./examples/...
	$(GO) -C bench build -cover -o $(REACH_BIN)/bench \
		-coverpkg=github.com/medusa-repro/medusa/internal/...,github.com/medusa-repro/medusa/bench .
	@# results-check
	$(REACH_RUN) $(REACH_BIN)/medusa-bench -all -out $(REACH_TMP) >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate $(TRACE_DEMO_FLAGS) -trace $(REACH_TMP)/trace-demo.json >/dev/null
	@# bench-smoke and faults-smoke
	$(REACH_RUN) $(REACH_BIN)/medusa-bench -exp ext-cache-policies >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-policy costaware -cache-ram 3 -cache-ssd 6 -idle 200ms -rps 3 -duration 10 >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-bench -exp ext-fault-sweep >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -faults crash -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-ram 3 -cache-ssd 6 -idle 250ms -rps 3 -duration 15 >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -model Qwen1.5-0.5B -faults heavy -idle 300ms -rps 0.5 -duration 120 >/dev/null
	@# examples, and every bench workload once
	for e in quickstart graph-materialize serverless-burst batch-sweep multimodel; do \
		$(REACH_RUN) $(REACH_BIN)/$$e >/dev/null || exit 1; done
	$(REACH_RUN) $(REACH_BIN)/bench -seed 1 -seconds 0.1 -trace 0 >/dev/null
	@# the CLI surfaces the smokes leave unset
	$(REACH_RUN) $(REACH_BIN)/medusa-inspect >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-inspect -dot 1 >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-offline -model Qwen1.5-0.5B >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-offline -model Qwen1.5-0.5B -templates >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -model Qwen1.5-0.5B -rps 3 -duration 10 -work \
		-requests-out $(REACH_TMP)/requests.jsonl >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -model Qwen1.5-0.5B -requests $(REACH_TMP)/requests.jsonl >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" -prewarm-ssd \
		-rps 3 -duration 10 >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" -batch-tokens 512 \
		-chunked-prefill -autoscale predictive -router score -slo-ttft 1s -slo-tpot 250ms \
		-rps 3 -duration 10 -trace $(REACH_TMP)/fleet-trace.json >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-bench -exp fig1 -trace $(REACH_TMP)/fig1-trace.json -phases -format csv >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -model Qwen1.5-0.5B -rps 3 -duration 10 -reps 2 -parallel >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -model Qwen1.5-0.5B -rps 3 -duration 10 \
		-cpuprofile $(REACH_TMP)/cpu.pprof -memprofile $(REACH_TMP)/mem.pprof >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" -stream -diurnal 30s \
		-router leastloaded -cache-policy lfu -followup 0.3 -retain -rps 3 -duration 10 >/dev/null
	$(REACH_RUN) $(REACH_BIN)/medusa-simulate -faults testdata/faults-plan.json -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-ram 3 -cache-ssd 6 -idle 250ms -rps 3 -duration 20 >/dev/null
	$(GO) tool covdata textfmt -i=$(REACH_DIR)/prod -o $(REACH_DIR)/prod.out
	@# the tests: in-process under -coverpkg, and the CLI tests' binaries
	@# (built with -cover because GOCOVERDIR is set)
	GOMAXPROCS=2 $(GO) test -count=1 -coverpkg=./internal/... -coverprofile=$(REACH_DIR)/test.out ./internal/...
	GOMAXPROCS=2 GOCOVERDIR=$(abspath $(REACH_DIR))/test $(GO) test -count=1 -run CLI .
	$(GO) tool covdata textfmt -i=$(REACH_DIR)/test -o $(REACH_DIR)/test-cli.out

reach: reach-profiles
	MEDUSA_REACH=$(abspath $(REACH_DIR)) MEDUSA_REACH_UPDATE=1 $(GO) test -count=1 -run '^TestReach$$' .

reach-check: reach-profiles
	MEDUSA_REACH=$(abspath $(REACH_DIR)) $(GO) test -count=1 -run '^TestReach$$' .

# Demonstrate the tracing layer: a short cluster simulation that writes
# a Perfetto-loadable Chrome trace and prints the drift-free per-phase
# cold-start breakdown.
TRACE_DEMO_FLAGS = -rps 4 -duration 20 -phases
trace-demo:
	mkdir -p results
	$(GO) run ./cmd/medusa-simulate $(TRACE_DEMO_FLAGS) -trace results/trace-demo.json

clean:
	rm -rf results
