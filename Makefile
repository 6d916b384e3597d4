# Single source of truth for build/test commands — CI runs these exact
# targets, so passing `make check` locally means passing CI.

GO ?= go

.PHONY: all build test test-386 race bench-check bench bench-smoke bench-store bench-quant run-experiment serve-smoke fleet-smoke lab-smoke robustness-smoke fmt fmt-check vet godoc-check check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The simulated models' answer draw does 64-bit modular arithmetic;
# running the vlm tests on a 32-bit target catches any of it slipping
# into 32-bit int.
test-386:
	GOARCH=386 $(GO) test ./internal/vlm

# Race overhead is ~10-20x; the root integration tests need more than
# the default 10m package timeout on small runners.
race:
	$(GO) test -race -timeout 45m ./...

# The benchmark harness under nbhdbench/ is its own Go module (it
# replaces nbhd with ../), so the root `go test ./...` never compiles
# it. Vet and test it here so a change to the library it drives cannot
# break the benchmark silently.
bench-check:
	cd nbhdbench && $(GO) vet ./... && $(GO) test ./...

# Full paper-benchmark sweep (slow; prints every table and figure).
bench:
	$(GO) test -run=NONE -bench=. -benchmem

# Short-form benchmark smoke for CI: proves the harness runs and gives a
# perf trajectory point without the full sweep's cost. Includes the HTTP
# backend sweep against an in-process llmserve (remote evaluation path)
# and the compute-layer microbenchmarks (batched GEMM convolution and the
# zero-allocation training step), with -benchmem so allocation regressions
# in the pooled hot path are visible in CI artifacts.
bench-smoke:
	$(GO) test -run=NONE -bench='MatMul128|HTTPBackend_Sweep|ConvForward|ConvBackward|TrainEpoch|DetectorForward|PredictBatch|Nearest|WarmStart|DegradationOps' -benchtime=1x -benchmem

# Spatial-layer benchmarks on their own: the geo index vs the linear
# scan it replaced, and warm-start store serving vs cold rendering.
# CI tees the output to BENCH_pr6.json, the persistent-store perf
# artifact.
bench-store:
	$(GO) test -run=NONE -bench='BenchmarkNearest|BenchmarkWarmStart' -benchtime=1x -benchmem

# Quantization benchmarks on their own: the GEMM size sweep (packed f32
# vs int8 kernel), the f32-vs-int8 end-to-end inference pairs at
# paper-realistic channel widths, and the accuracy-drift recorder. CI
# tees the output to BENCH_pr7.json, the quantized-inference perf +
# drift artifact.
bench-quant:
	$(GO) test -run=NONE -bench='GEMMSizes' -benchtime=1x -benchmem ./internal/tensor
	$(GO) test -run=NONE -bench='DetectorForward|PredictBatch|TrainEpoch|QuantDrift' -benchtime=1x -benchmem

# Executes the small built-in "smoke" experiment spec end to end
# through the declarative runner (two model sweeps plus their majority
# vote), writes its run artifacts under runs/, and copies the run
# manifest to BENCH_pr4.json — the comparable run record CI uploads for
# every PR. Same spec + seed ⇒ byte-identical sweep report files.
run-experiment:
	$(GO) run ./cmd/llmeval -coords 12 -experiment smoke -run-dir runs
	cp runs/run-smoke/manifest.json BENCH_pr4.json

# Boots the classification gateway in-process with the trained cnn
# backend and replays a Zipf-skewed sweep as concurrent client traffic
# against three gateway variants — dynamic batching (with single-flight
# dedup), batching pinned to size 1, and batching plus the LRU result
# cache — and writes the throughput/latency comparison to
# BENCH_pr5.json, the CI artifact proving coalescing beats the
# batch-size-1 gateway.
serve-smoke:
	$(GO) run ./cmd/nbhdserve -loadgen -coords 12 -cnn-epochs 2 \
		-loadgen-requests 512 -loadgen-concurrency 64 -loadgen-frames 48 \
		-bench-out BENCH_pr5.json

# Boots the multi-replica fleet in-process (consistent-hash router +
# supervisor, one floored vlm backend per replica) and replays the Zipf
# sweep at 1, 2, and 4 replicas, then re-runs it on a 3-replica fleet
# while killing one replica unannounced at the halfway mark. Writes
# BENCH_pr8.json, the CI artifact proving (a) aggregate throughput
# scales with replica count and (b) the kill replay completes with zero
# dropped 200s and bit-identical failover answers — the run errors out
# if either fails.
fleet-smoke:
	$(GO) run ./cmd/nbhdfleet -loadgen -bench-out BENCH_pr8.json

# Runs the lab daemon's self-test in a fresh workspace: a baseline run
# of the builtin smoke spec, a repeat run asserted byte-identical
# against the promoted baseline, and a third run killed between two
# journal appends then resumed after reopening the workspace — the
# resumed run must restore journaled cells, re-run only the missing
# ones, and still diff byte-identical. Writes BENCH_pr9.json, the CI
# artifact recording both guarantees; the target fails if either does.
lab-smoke:
	$(GO) run ./cmd/nbhdlab -smoke -coords 12 -bench-out BENCH_pr9.json

# Runs a reduced robustness matrix end to end through the builtin
# experiment: two world morphologies, the clean and night capture
# conditions, the two supervised backends — every cell checked against
# the accuracy envelope (the run exits non-zero on any cell below its
# floor). Writes BENCH_pr10.json, the CI artifact recording the full
# cell table; run artifacts land under runs/ and are byte-identical for
# the same seed.
robustness-smoke:
	$(GO) run ./cmd/llmeval -coords 8 -seed 0 -experiment robustness \
		-morphology grid,coastal -condition clean,night -matrix-kinds cnn,yolo \
		-train-epochs 1 -run-dir runs -bench-out BENCH_pr10.json

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Every internal package must carry a real package comment ("// Package
# <name> ..." in some file of the package) — the architecture book
# (docs/ARCHITECTURE.md) leans on godoc for per-package detail, so an
# undocumented package is a CI failure, not a style nit.
godoc-check:
	@missing=""; \
	for p in internal/*/; do \
		n=$$(basename $$p); \
		grep -qs "^// Package $$n " $$p*.go || missing="$$missing $$n"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "internal packages missing a package comment:$$missing"; exit 1; \
	fi

check: fmt-check vet godoc-check build test
