# Verify loop for the repo. `make verify` is the default gate for any
# change: gofmt drift, the tier-1 build+test pass (ROADMAP.md), go vet, the race
# detector over the concurrent packages (internal/serve is the first
# concurrent code in the repo; its tests — and the cmd tests that
# drive a live server — must stay race-clean), and the project's own
# static-analysis suite (cmd/vplint, see DESIGN.md §"Statically
# enforced invariants").

GO ?= go

.PHONY: verify fmt build test vet lint race bench serve-bench fuzz

verify: fmt vet build test race lint

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
# lifecycle ties, VP1 op/status exhaustiveness, and snapshot
# append/restore symmetry. One process runs all nine rules; the
# deadline keeps that single-pass design honest as the tree grows.
# Non-zero exit on any finding; suppress only with
# //lint:ignore <rule> <reason>.
lint:
	$(GO) run ./cmd/vplint -deadline 60s ./...

race:
	$(GO) test -race ./internal/serve/... ./internal/cluster/... ./internal/autotune/... ./internal/core/... ./internal/engine/... ./cmd/vpserve/... ./cmd/vprouter/... ./cmd/vploadgen/... ./cmd/dfcmsim/...

# Short fuzz smoke over the attacker-facing decoders and the history
# hashes. CI-friendly: a few seconds per target; crank -fuzztime for
# a real campaign.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrameReaderErrors$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzHash$$' -fuzztime=$(FUZZTIME) ./internal/hash
	$(GO) test -run='^$$' -fuzz='^FuzzReadAuto$$' -fuzztime=$(FUZZTIME) ./internal/trace

# Experiment-suite benchmarks, snapshotted to BENCH_engine.json
# (name → ns/op, allocs/op) with speedups over stated baselines
# recorded alongside. The full suite runs one iteration per figure;
# the per-event predictor microbenchmarks, batch loops, engine replay
# and serve dispatch paths re-run at steady state ($(BENCH_COUNT)
# counts; benchjson keeps the minimum ns/op and maximum allocs/op
# across repeats) since their 1x numbers are pure noise.
#
# Baselines: BENCH_FIG9_BASELINE_NS is the pre-engine sequential
# replay path (full-suite -benchtime=1x); the BENCH_*_BASELINE_NS
# per-predictor numbers and the engine replay baseline are the
# pre-SoA/pre-batch hot path as last recorded in BENCH_engine.json
# before the flat-layout rework, so the `speedup` section tracks the
# rework's per-predictor win.
#
# The -zero gates are the CI alloc-regression tripwire: the build
# fails if the steady-state engine replay, the TAGE batch loop, the
# delayed-update DFCM, either serve dispatch benchmark, the loopback
# wire round trip, or the autotune mirror-tap path reports any
# allocs/op.
BENCH_FIG9_BASELINE_NS ?= 18681932
BENCH_REPLAY_BASELINE_NS ?= 2049359
BENCH_DFCM_BASELINE_NS ?= 10.74
BENCH_FCM_BASELINE_NS ?= 8.794
BENCH_STRIDE_BASELINE_NS ?= 6.16
BENCH_TWODELTA_BASELINE_NS ?= 5.778
BENCH_LVP_BASELINE_NS ?= 4.836
BENCH_DELAYED_BASELINE_NS ?= 16.21
BENCH_PERFECT_BASELINE_NS ?= 17.69
BENCH_COUNT ?= 3
bench:
	{ $(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkPredict' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkRunBatch' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkSnapshot' -benchmem -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkEngineReplay$$' -benchmem ./internal/engine/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe' -benchmem -count=$(BENCH_COUNT) ./internal/serve/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkServe' -benchmem -count=$(BENCH_COUNT) ./internal/autotune/ ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkClusterBackends' -benchmem -count=$(BENCH_COUNT) ./internal/cluster/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_engine.json \
	    -cmd "make bench (go test -bench . -benchtime 1x -benchmem; Predict*/RunBatch*/Snapshot*/EngineReplay/Serve*/ClusterBackends* at steady state)" \
	    -speedup BenchmarkFig9=$(BENCH_FIG9_BASELINE_NS) \
	    -speedup BenchmarkEngineReplay=$(BENCH_REPLAY_BASELINE_NS) \
	    -speedup BenchmarkPredictDFCM=$(BENCH_DFCM_BASELINE_NS) \
	    -speedup BenchmarkPredictFCM=$(BENCH_FCM_BASELINE_NS) \
	    -speedup BenchmarkPredictStride=$(BENCH_STRIDE_BASELINE_NS) \
	    -speedup BenchmarkPredictTwoDelta=$(BENCH_TWODELTA_BASELINE_NS) \
	    -speedup BenchmarkPredictLastValue=$(BENCH_LVP_BASELINE_NS) \
	    -speedup BenchmarkPredictDFCMDelayed=$(BENCH_DELAYED_BASELINE_NS) \
	    -speedup BenchmarkPredictPerfectHybrid=$(BENCH_PERFECT_BASELINE_NS) \
	    -zero BenchmarkEngineReplay \
	    -zero BenchmarkRunBatchTAGE \
	    -zero BenchmarkPredictDFCMDelayed \
	    -zero BenchmarkServeDispatchRunBatch \
	    -zero BenchmarkServeDispatchPredictBatch \
	    -zero BenchmarkServeWireRunBatch \
	    -zero BenchmarkServeMirrorTap
	@cat BENCH_engine.json

# Per-op predictor baselines for the serving hot path.
serve-bench:
	$(GO) test -bench=PredictUpdate -benchmem ./internal/core/
