# Verify loop for the repo. `make verify` is the default gate for any
# change: gofmt drift, the tier-1 build+test pass (ROADMAP.md), go vet, the race
# detector over the concurrent packages (internal/serve is the first
# concurrent code in the repo; its tests — and the cmd tests that
# drive a live server — must stay race-clean), the project's own
# static-analysis suite (cmd/vplint, see DESIGN.md §"Statically
# enforced invariants"), and a build and vet of the nested vpbench
# module.

GO ?= go

.PHONY: verify fmt build test vet lint race vpbench-build bench allocgate serve-bench fuzz loc

verify: fmt vet build test race lint vpbench-build

# Fails if gofmt would rewrite any Go file outside testdata (fixtures
# there are analyzer inputs, kept as written).
fmt:
	@out=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific invariants: Predict purity, replay determinism,
# hot-path allocation discipline, VP1 decode bounds, error discipline,
# lock discipline around guardedby-annotated fields, goroutine
# lifecycle ties, and VP1 op/status exhaustiveness. One process runs
# all eight rules; the deadline keeps that single-pass design honest
# as the tree grows.
# Non-zero exit on any finding; suppress only with
# //lint:ignore <rule> <reason>.
lint:
	$(GO) run ./cmd/vplint -deadline 60s ./...

race:
	$(GO) test -race ./internal/serve/... ./internal/cluster/... ./internal/autotune/... ./internal/core/... ./internal/engine/... ./internal/snapshot/... ./internal/vm/... ./internal/progs/... ./cmd/vpserve/... ./cmd/vprouter/... ./cmd/vploadgen/... ./cmd/vpstate/... ./cmd/dfcmsim/...

# vpbench is its own module (it replaces repro with ../), so
# `go build ./...` above skips it: build and vet it here, so a change to
# an exported signature it uses cannot break the benchmark unseen. The
# binary goes to /dev/null: vpbench/run.py builds its own.
vpbench-build:
	cd vpbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Short fuzz smoke over the attacker-facing decoders, predictor state
# restore, the history hashes, and the MR32 interpreter against its
# reference. CI-friendly: a few seconds per target; crank -fuzztime for
# a real campaign.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrameReaderErrors$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzRestoreState$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzHash$$' -fuzztime=$(FUZZTIME) ./internal/hash
	$(GO) test -run='^$$' -fuzz='^FuzzReadAuto$$' -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzCompiledMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/vm

# Experiment-suite benchmarks, snapshotted to BENCH_engine.json
# (name → ns/op, allocs/op). The full suite runs one iteration per
# figure: those -benchtime 1x figure benchmarks are smoke tests and
# allocation counts, not timings. The timed record of the offline
# figures is vpbench's traced experiments.*_ms (vpbench/README.md),
# and a speed claim cites alternating parent/change vpbench runs. The
# per-event predictor microbenchmarks, batch loops, engine replay,
# alias analyzer and serve dispatch paths re-run at steady state ($(BENCH_COUNT) counts;
# benchjson records the median ns/op with its interquartile range, and
# the maximum allocs/op, across repeats) since their 1x numbers are
# pure noise; the 1x pass skips them so no such sample enters a median.
# The VM's BenchmarkSimulator (one 100k-instruction li trace per op,
# ns/instruction beside events/run) and BenchmarkSimulatorStep (li
# single-stepped for 100k instructions, ns/step, the path internal/ilp
# takes) are timed at steady state the same way.
#
# The Fig12/13/14 allocations are the alias analyzer's
# (internal/alias): its tables, plus one dense private level-2 row per
# level-1 entry the trace touches, allocated on first use. Once warm
# it allocates nothing (BenchmarkAliasAnalyzer, an allocgate gate).
#
# bench first runs allocgate, so a recording never comes from a tree
# that allocates on a zero-alloc path.
BENCH_COUNT ?= 3
bench: allocgate
	{ $(GO) test -run='^$$' -bench=. -skip='^Benchmark(Predict|RunBatch|Snapshot|Simulator)' -benchtime=1x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkSimulator(Step)?$$' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkPredict' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkRunBatch' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkSnapshot' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkEngineReplay$$' -benchmem -count=$(BENCH_COUNT) ./internal/engine/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkAliasAnalyzer$$' -benchmem -count=$(BENCH_COUNT) ./internal/alias/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe' -benchmem -count=$(BENCH_COUNT) ./internal/serve/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe' -benchmem -count=$(BENCH_COUNT) ./internal/autotune/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkClusterBackends' -benchmem -count=$(BENCH_COUNT) ./internal/cluster/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_engine.json \
	    -cmd "make bench (go test -bench . -benchtime 1x -benchmem; Simulator*/Predict*/RunBatch*/Snapshot*/EngineReplay/AliasAnalyzer/Serve*/ClusterBackends* at steady state)"
	@cat BENCH_engine.json

# The alloc-regression tripwire, run by bench and by CI: it fails if
# the steady-state engine replay, the TAGE batch loop, the fused
# delayed-update kernel, the per-op delayed DFCM, the warm alias
# analyzer, the in-place Reset (the zeroing state walk) of a DFCM,
# TAGE, delayed DFCM or hybrid, the three serve dispatch benchmarks
# (bulk RunBatch, bulk PredictBatch, the chatty predict+update pair),
# the loopback wire round trip, or the autotune mirror-tap path reports
# any allocs/op, or if one of them is missing.
# Runs without -race: the detector's instrumentation allocates.
ALLOC_GATES = BenchmarkEngineReplay BenchmarkRunBatchTAGE \
	BenchmarkRunBatchDelayed BenchmarkPredictDFCMDelayed \
	BenchmarkAliasAnalyzer \
	BenchmarkReset/dfcm BenchmarkReset/tage BenchmarkReset/delayed BenchmarkReset/hybrid \
	BenchmarkServeDispatchRunBatch BenchmarkServeDispatchPredictBatch \
	BenchmarkServeDispatchChatty \
	BenchmarkServeWireRunBatch BenchmarkServeMirrorTap
allocgate:
	{ $(GO) test -run='^$$' -bench='^BenchmarkEngineReplay$$' -benchmem ./internal/engine/ ; \
	  $(GO) test -run='^$$' -bench='^Benchmark(RunBatchTAGE|RunBatchDelayed|PredictDFCMDelayed)$$' -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkAliasAnalyzer$$' -benchmem ./internal/alias/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkReset$$' -benchmem ./internal/core/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe(Dispatch|WireRunBatch)' -benchmem ./internal/serve/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServeMirrorTap$$' -benchmem ./internal/autotune/ ; } \
	| $(GO) run ./cmd/benchjson $(foreach g,$(ALLOC_GATES),-zero $(g)) > /dev/null

# Per-op predictor baselines for the serving hot path.
serve-bench:
	$(GO) test -bench=PredictUpdate -benchmem ./internal/core/

# The three line counts ROADMAP.md tracks: non-test Go, tests, and the
# vplint fixtures under testdata/. vpbench/ is left out of all three.
LOC_FIND = find . -name '*.go' -not -path './vpbench/*'
loc:
	@printf 'non-test Go    %s\n' "$$($(LOC_FIND) -not -name '*_test.go' -not -path '*/testdata/*' -exec cat {} + | wc -l)"
	@printf 'tests          %s\n' "$$($(LOC_FIND) -name '*_test.go' -not -path '*/testdata/*' -exec cat {} + | wc -l)"
	@printf 'lint fixtures  %s\n' "$$($(LOC_FIND) -path '*/testdata/*' -exec cat {} + | wc -l)"
