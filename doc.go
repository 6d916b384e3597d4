// Package nbhd reproduces "Decoding Neighborhood Environments with Large
// Language Models" (DSN 2025) as a pure-Go system: a synthetic
// street-view substrate, a from-scratch convolutional detector standing
// in for the YOLOv11 baseline, calibrated simulations of the four
// commercial vision LLMs behind a real HTTP API, and the evaluation,
// voting, and neighborhood-analysis pipeline on top.
//
// The package itself holds the benchmark harness (bench_test.go): one
// benchmark per table and figure in the paper's evaluation section. The
// library lives under internal/; the runnable tools under cmd/ and
// examples/.
//
// The public face is the declarative experiment layer in
// internal/experiment: an experiment is a JSON-round-trippable Spec
// (dataset + named backend specs + sweeps + analyses) executed by a
// streaming Runner that emits typed progress Events in deterministic
// order and can persist every run as a diffable manifest + report-JSON
// artifact directory (experiment.Store). Backends construct from
// declarative specs through the registry (backend.Register /
// backend.Open); the paper's experiments are built-in specs
// (experiment.Builtin), and a golden test pins the runner's reports
// byte-identical to checked-in report JSON.
//
// Evaluation runs on the concurrent engine in internal/core: a run
// walks the corpus once for every sweep and analysis, frame batch by
// frame batch, across GOMAXPROCS workers with context cancellation;
// each worker renders and perceives a frame once, into buffers it
// reuses, and asks every job while the frame is in cache. Reports are
// bit-identical to the serial path (see README.md for the API and
// guarantees).
//
// Every classifier family flows into that engine through the pluggable
// backend layer in internal/backend: one Backend interface (batched
// Classify plus capability hints) with adapters for the builtin models,
// committees, remote HTTP models (lossless image transport makes their
// reports bit-identical to local), the YOLO detector's presence
// predictions, and the scene-classification CNN baseline.
//
// The online face is the serving gateway in internal/serve
// (cmd/nbhdserve): a long-lived HTTP classification service over the
// same backend registry, coalescing single-frame requests into dynamic
// micro-batches per (backend, options) key — flushed at the backend's
// preferred batch size or a max-latency timer, with single-flight
// collapse of concurrent identical requests — behind bounded admission
// queues that shed load with 503 + Retry-After (the same contract
// llmserve speaks, so llmclient's retry loop interoperates), an LRU
// result cache, JSON health/metrics endpoints, and graceful drain.
// Coalesced responses are bit-identical to serial single-item
// classification.
//
// Beneath the detector sits the fast NN compute layer
// (internal/tensor + internal/nn): one packed, register-blocked
// parallel GEMM kernel, im2col convolution (one GEMM per sample, in
// training and inference alike), a size-keyed scratch pool that makes
// steady-state training steps allocation-free, and a stateless Infer
// path that lets the engine run detector/CNN inference concurrently. Kernel partitioning preserves per-element
// accumulation order, so training curves and every reported metric are
// bit-identical to the reference implementation (see README.md's
// performance section and the golden-curve tests).
package nbhd
