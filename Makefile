# Single source of truth for build/test commands — CI runs these exact
# targets, so passing `make check` locally means passing CI.

GO ?= go

.PHONY: all build test test-386 race bench-check bench bench-smoke fuzz-smoke fmt fmt-check vet godoc-check check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The math/rand copy in randsrc and the simulated models' answer draw
# do 64-bit modular arithmetic, and the renderer, scene generator and
# perception index flat pixel planes or draw from seeded sources;
# running their tests (with the answer, perception and frame goldens
# and the math/rand equivalence tables) on a 32-bit target catches any
# of it slipping into 32-bit int. The tensor and nn suites run the
# packed GEMM's row and column splits through the pure-Go microkernels
# (microKernel4x4Go, microKernelEdge), which amd64 replaces with SSE,
# and check the exp behind the sigmoid and the BCE loss bit for bit
# against math.Exp's portable code. The classify and yolo loss-curve and
# prediction goldens pin the shared training loop (nn.Train) and
# backbone on that pure-Go path, and the backend suite checks the one
# supervised adapter's answers against both models there.
# The gateway's /v1/classify scanner parses int fields at the platform's
# int width, as encoding/json does; its fuzz seeds replay a width past
# int32 there.
test-386:
	GOARCH=386 $(GO) test ./internal/randsrc ./internal/vlm ./internal/render ./internal/scene ./internal/tensor ./internal/nn ./internal/classify ./internal/yolo ./internal/backend ./internal/serve

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
# f32-vs-int8 inference pairs, the CNN at the shape the gateway's cnn
# route serves — 16 frames, channels [8, 16, 32] — and the GEMM size
# sweep), the quantization drift recorder, the spatial index and
# warm-start store serving, the degradation ops, a 96×96 frame render,
# perception, source seeding, the evaluator's four-model walk and a
# whole f4 run through the experiment runner (two sweeps, one walk),
# and one cache-hit raw-f32 upload through the gateway's handler.
# -benchmem keeps allocation counts visible.
# Performance numbers come from nbhdbench (see BENCHMARK.json), not
# from this target.
bench-smoke:
	$(GO) test -run=NONE -bench='MatMul128|HTTPBackend_Sweep|ConvForward|ConvBackward|TrainEpoch|DetectorForward|PredictBatch|QuantDrift|GEMMSizes|Nearest|WarmStart|DegradationOps|RenderFrame96|Perceive|Seed|EvaluatorSweep|RunnerRun|ClassifyUploadHit' -benchtime=1x -benchmem . ./internal/tensor ./internal/randsrc ./internal/serve

# Runs each fuzz target for ten seconds past its seed corpus (plain
# `go test` already replays the seeds under testdata/fuzz/). The
# targets cover the strict-JSON spec and gateway config parsers, the
# gateway's /v1/classify body scanner against encoding/json, its
# raw-f32 upload key against the decoded image's hash, the raw-f32 and
# PNG upload decoders, the packed GEMM kernel, the math/rand copy in randsrc, and the two parsers
# a remote model's reply crosses: its Yes/No answers (prompt) and its
# Retry-After header (llmclient). `go test -fuzz`
# takes one package and one target per run; capping minimization at
# 100 runs per new input keeps the ten seconds spent fuzzing rather
# than shrinking inputs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzParseSpec$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/experiment
	$(GO) test -run=NONE -fuzz='^FuzzParseConfig$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run=NONE -fuzz='^FuzzDecodeClassify$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run=NONE -fuzz='^FuzzUploadKey$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run=NONE -fuzz='^FuzzDecodeUpload$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/render
	$(GO) test -run=NONE -fuzz='^FuzzPackedGEMM$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/tensor
	$(GO) test -run=NONE -fuzz='^FuzzSource$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/randsrc
	$(GO) test -run=NONE -fuzz='^FuzzParseAnswers$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/prompt
	$(GO) test -run=NONE -fuzz='^FuzzParseRetryAfter$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/llmclient

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
