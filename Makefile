GO ?= go

.PHONY: all build vet test race smoke diff fuzz-short ccbench-test lint-dispatch lint-fastpath lint-metrics check bench bench-json bench-exec bench-diff bench-append bench-trend bundle

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The bench package's corpus/engine tests are the concurrency-sensitive
# ones; -race over the whole module exercises them plus the simulator.
race:
	$(GO) test -race ./...

# End-to-end sanity: the parallel engine must produce a table and exit 0.
smoke:
	$(GO) run ./cmd/experiments -run fig5 -parallel 4

# Differential gate: the indexed greedy and static builders must be
# byte-identical to their reference implementations on all eight synth
# benchmarks, plus the fuzz seed corpus, and every strategy's capped build
# must be a prefix of its uncapped build (the invariant the corpus's
# family cache rests on), and after every greedy selection the occurrence
# index must still encode coverage exactly. The fused loop's fetch
# journal must deliver exactly the Step path's TraceFetch sequence on all
# eight benchmarks, native and through every dictionary codec; the
# memory-resident dictionary's replay of that journal must equal its
# replay of Step's slots, chunked and rerun, and account for every
# instruction the dictionary supplied; and a Record-only run must
# stay fused and export the Step path's machine counters. Fixed-dictionary
# Apply must equal its map-based reference on all eight benchmarks against
# the shared dictionary and on the fuzz seeds, and the table-shaped LZW
# encoder and decoder must equal the map-keyed encoder and slice-per-code
# decoder they replaced: the same streams, output and typed errors.
diff:
	$(GO) test -run 'MatchesReference|PrefixMatches|StrategyParity|CoverKeepsIndexConsistent|FuzzBuildDifferential|FuzzApplyDifferential' ./internal/dictionary
	$(GO) test -run '^(TestMatchesStringKeyedReference|FuzzLZWDifferential)$$' ./internal/lzw
	$(GO) test -run '^(TestFetchJournalMatchesStep|TestFrontendDictInMemoryAccounting)$$' ./internal/core
	$(GO) test -run '^TestRecordStaysFused$$' ./internal/machine

# Short coverage-guided fuzz of the differential oracles — the fused
# fast path (with its Reset rerun) against the Step path, the indexed
# dictionary builder against the reference builder, fixed-dictionary Apply
# against its map-based reference, and LZW against the encoder and decoder
# it replaced — of OpenImage on hostile frames, whose images must open or
# fail and then run on both paths without a panic, and of
# ReadProgram/ReadDictionary, whose accepted files must round-trip byte
# for byte. 20 s each.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzFastPathDifferential$$' -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz '^FuzzBuildDifferential$$' -fuzztime 20s ./internal/dictionary
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDifferential$$' -fuzztime 20s ./internal/dictionary
	$(GO) test -run '^$$' -fuzz '^FuzzLZWDifferential$$' -fuzztime 20s ./internal/lzw
	$(GO) test -run '^$$' -fuzz '^FuzzOpenImage$$' -fuzztime 20s ./internal/objfile
	$(GO) test -run '^$$' -fuzz '^FuzzReadProgram$$' -fuzztime 20s ./internal/objfile

# The benchmark's own tests: cmd/ccbench is a nested module (it replaces
# repro with the checkout), so `go test ./...` at the root never reaches
# it. Among them is the check that the reproduction's tables still equal
# cmd/ccbench/testdata/reproduce.golden.
ccbench-test:
	cd cmd/ccbench && $(GO) test ./...

# Dispatch gate: codec selection flows through the registry. A switch on a
# codeword scheme anywhere outside internal/codec and internal/codeword is
# a hard-coded dispatch site reintroducing the pre-registry pattern; add a
# Codec method or an interface facet instead (see DESIGN.md, "Codec
# registry"). Likewise the comparators: non-test code outside their home
# packages reaches LZW and CCRP through their registered codecs, never by
# calling lzw.Compress* or huffman.BuildCCRPImage.
lint-dispatch:
	@found=$$(grep -rn 'switch.*[Ss]cheme' --include='*.go' \
		--exclude-dir=codec --exclude-dir=codeword . || true); \
	if [ -n "$$found" ]; then \
		echo "$$found"; \
		echo 'lint-dispatch: switch-on-Scheme dispatch outside internal/codec and internal/codeword'; \
		echo 'lint-dispatch: route codec selection through the registry (DESIGN.md, "Codec registry")'; \
		exit 1; \
	fi
	@found=$$(grep -rnE '\<(lzw\.Compress|huffman\.BuildCCRPImage)' --include='*.go' --exclude='*_test.go' \
		--exclude-dir=lzw --exclude-dir=huffman . || true); \
	if [ -n "$$found" ]; then \
		echo "$$found"; \
		echo 'lint-dispatch: comparator called directly outside internal/lzw and internal/huffman'; \
		echo 'lint-dispatch: reach LZW and CCRP through the codec registry (DESIGN.md, "Codec registry")'; \
		exit 1; \
	fi

# Fast-path purity gate: the fused loop in predecode.go must never call a
# telemetry sink directly — no hooks, no stats recorder, no slot observer.
# Its one piece of per-fetch telemetry is a fetch-journal append; the
# journal reaches its consumers only through the helpers in fastpath.go
# (beginJournal/drainFetches/takenFetch/endFast; stepped for Step). A sink
# identifier appearing in predecode.go means someone put per-step work
# back on the hot path (see DESIGN.md, "Observability").
lint-fastpath:
	@found=$$(grep -nE 'Record|TraceFetch|TraceStep|TraceSlots|ObserveSlots|sampleRec|stats\.|ObserveValue' \
		internal/machine/predecode.go || true); \
	if [ -n "$$found" ]; then \
		echo "$$found"; \
		echo 'lint-fastpath: telemetry sink referenced inside the fused fast path'; \
		echo 'lint-fastpath: drain through the journal helpers in fastpath.go instead (DESIGN.md, "Observability")'; \
		exit 1; \
	fi

# Metric-name registry gate: every literal counter/phase/histogram name
# passed to a stats.Recorder sink (Add/Observe/ObserveValue) or to
# trace.Span.Phase, which takes the name first, must appear in
# internal/stats/metrics.txt, so bundle schemas and the -json
# report cannot grow names silently. Dynamically
# built names (machine.fastpath.bail.* from BailReason strings) are
# enumerated in the registry and pinned by a test in internal/machine.
lint-metrics:
	@used=$$(grep -rhoE '\.(Add|Observe|ObserveValue|Phase)\("[a-z0-9_]+\.[a-z0-9_.]+"' \
		--include='*.go' --exclude='*_test.go' cmd internal \
		| sed -E 's/.*\("([^"]+)".*/\1/' | sort -u); \
	missing=$$(for m in $$used; do \
		grep -qx "$$m" internal/stats/metrics.txt || echo "$$m"; \
	done); \
	if [ -n "$$missing" ]; then \
		echo "$$missing"; \
		echo 'lint-metrics: metric names used in source but missing from internal/stats/metrics.txt'; \
		echo 'lint-metrics: add them to the registry (keep it sorted; see DESIGN.md, "Run bundles")'; \
		exit 1; \
	fi

check: vet build lint-dispatch lint-fastpath lint-metrics diff ccbench-test race smoke

bench:
	$(GO) test -bench=. -benchmem .

# Perf trajectory: dictionary.Build and core.Compress at small/medium/full
# corpus sizes, the shared dictionary over all eight programs, compressing
# against a fixed dictionary, LZW compress and decompress, plus the
# execution benchmarks (the Step path and I-cache simulation included,
# with the cache model alone on a recorded fetch stream, and the paired
# execution ratios bench-diff holds to their ceilings),
# recorded as BENCH_dictionary.json (ns/op, B/op, allocs/op,
# and histogram quantiles such as selbits-p50/p90/p99 and
# explen-p50/p90/p99). BENCH_SAMPLES runs
# each benchmark that many times so the report carries raw samples — the
# fuel for 95% confidence intervals and the -significant gate.
BENCH_SAMPLES ?= 5
bench-json:
	$(GO) test -run '^$$' -bench '^BenchmarkDictionaryBuild$$|^BenchmarkSharedDictionary$$|^BenchmarkCompressSweep$$|^BenchmarkNativeExecution$$|^BenchmarkCompressedExecution$$|^BenchmarkSampledExecution$$|^BenchmarkExecutionRatios$$|^BenchmarkHookedExecution$$|^BenchmarkICacheExecution$$|^BenchmarkICacheAccess$$|^BenchmarkReset$$|^BenchmarkOpenImage$$|^BenchmarkApplyFixedDictionary$$|^BenchmarkLZWCompress$$|^BenchmarkLZWDecompress$$' -count=$(BENCH_SAMPLES) -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_dictionary.json
	@echo wrote BENCH_dictionary.json

# Just the execution-speed pair (native vs compressed through the
# predecoded engine) plus the profiled run, the paired execution ratios
# (compressed_vs_native_ratio and sampled_profiling_overhead_ratio, timed
# by BenchmarkExecutionRatios), the hooked Step-path run, the I-cache run,
# the I-cache model replaying a recorded fetch stream and the Reset layer,
# recorded as BENCH_exec.json — the quick loop while working on the
# execution engine, without the multi-minute dictionary sweeps.
bench-exec:
	$(GO) test -run '^$$' -bench '^BenchmarkNativeExecution$$|^BenchmarkCompressedExecution$$|^BenchmarkSampledExecution$$|^BenchmarkExecutionRatios$$|^BenchmarkHookedExecution$$|^BenchmarkICacheExecution$$|^BenchmarkICacheAccess$$|^BenchmarkReset$$' -count=$(BENCH_SAMPLES) -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_exec.json
	@echo wrote BENCH_exec.json

# The blocking regression gate (CI runs exactly this): a fresh bench-json
# run against the committed baseline. It is noise-aware: a regression
# beyond 30% only fails when it is also statistically significant
# (Mann-Whitney over the raw samples). The -max ceilings hold compressed
# execution within 1.15x of native and the always-on profiler within
# 1.10x of the bare fast path, checked against the 95% CI upper bound of
# BenchmarkExecutionRatios's paired samples.
# Usage: make bench-diff NEW=BENCH_dictionary.json [BASELINE=...]
BASELINE ?= baselines/BENCH_dictionary.json
bench-diff:
	$(GO) run ./cmd/benchdiff -threshold 30 -significant \
		-max compressed_vs_native_ratio=1.15 \
		-max sampled_profiling_overhead_ratio=1.10 \
		$(BASELINE) $(NEW)

# Perf-history ledger: append the current BENCH_dictionary.json to the
# JSONL ledger, stamped with the working tree's HEAD commit. The ledger
# starts from the committed seed so local trends include the repo's
# recorded history.
LEDGER ?= perf-ledger.jsonl
bench-append:
	@test -f $(LEDGER) || cp baselines/perf-ledger.jsonl $(LEDGER)
	$(GO) run ./cmd/cctrend -append BENCH_dictionary.json \
		-commit $$(git rev-parse HEAD) \
		-time $$(date -u +%Y-%m-%dT%H:%M:%SZ) \
		$(LEDGER)
	@echo appended to $(LEDGER)

# Render the ledger as a standalone HTML timeline (sparklines with CI
# bands, changepoint marks, worst-regressions table) plus aligned text.
bench-trend:
	@test -f $(LEDGER) || cp baselines/perf-ledger.jsonl $(LEDGER)
	$(GO) run ./cmd/cctrend -o trend.html $(LEDGER)
	$(GO) run ./cmd/cctrend -text $(LEDGER)
	@echo wrote trend.html

# Run bundles: one flight-recorder directory per benchmark and registered
# codec (stats, profiles, byte-provenance audit.json/audit.csv) plus a
# whole-run experiments/ bundle, under bundles/. Render one with
# `go run ./cmd/ccreport bundles/<bench>.nibble`.
bundle:
	$(GO) run ./cmd/experiments -run table1 -bundle bundles
