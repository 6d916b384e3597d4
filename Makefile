# Single source of truth for build/test commands — CI runs these exact
# targets, so passing `make check` locally means passing CI.

GO ?= go

.PHONY: all build test test-386 race bench-check bench bench-smoke fmt fmt-check vet godoc-check check

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

# Runs every Go microbenchmark once so none of them can rot: the HTTP
# backend sweep against an in-process llmserve, the compute layer
# (batched GEMM convolution, the zero-allocation training step, the
# f32-vs-int8 inference pairs and the GEMM size sweep), the quantization
# drift recorder, the spatial index and warm-start store serving, and
# the degradation ops. -benchmem keeps allocation counts visible.
# Performance numbers come from nbhdbench (see BENCHMARK.json), not
# from this target.
bench-smoke:
	$(GO) test -run=NONE -bench='MatMul128|HTTPBackend_Sweep|ConvForward|ConvBackward|TrainEpoch|DetectorForward|PredictBatch|QuantDrift|GEMMSizes|Nearest|WarmStart|DegradationOps' -benchtime=1x -benchmem . ./internal/tensor

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
