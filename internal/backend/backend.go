// Package backend is the pluggable classifier-backend layer beneath the
// evaluation engine. Every classifier family the paper compares — the
// builtin simulated vision LLMs, majority-voting committees, remote
// models behind the chat-completions HTTP API, the YOLO-style detector's
// presence predictions, and the scene-classification CNN baseline — is
// adapted to one Backend interface, so a single engine (core.Evaluator)
// drives them all through the same frame-major walk over the corpus and
// scores their answers through the same path.
//
// The detector and the CNN share one adapter (NewYOLO, NewCNN): it owns
// their capabilities, compute counters and request handling, and each
// constructor adds only the model's rule from a batch of frames to
// image-level indicator presence. That adapter is the one place either
// model's presence is decided, for the engine, the serve gateway and
// the paper benchmarks alike.
//
// A Backend classifies frames in batches and advertises capability hints
// the engine uses to shape the sweep: whether it consumes precomputed
// perception features, the batch size it prefers, how many concurrent
// Classify calls it tolerates, and the render resolution it needs.
package backend

import (
	"context"
	"io"

	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// Item is one frame in a batch classification request.
type Item struct {
	// ID identifies the frame (for error messages and tracing).
	ID string
	// Image is the rendered frame; backends must treat the pixels as
	// read-only and must not keep the image (or Feats) after Classify
	// returns: the evaluation walk renders the next batch into the same
	// buffers.
	Image *render.Image
	// Feats holds precomputed perception features. The engine fills it
	// only for backends whose Capabilities report PerceivedFeatures;
	// otherwise it is nil.
	Feats *vlm.Features
}

// Options are the request knobs shared by every item in a batch.
type Options struct {
	// Indicators are the classes asked about, in answer order.
	Indicators []scene.Indicator
	// Language of the prompt; zero defaults to English.
	Language prompt.Language
	// Mode is parallel or sequential prompting; zero defaults to
	// parallel.
	Mode prompt.Mode
	// Temperature and TopP forward to the models (zero = defaults).
	Temperature, TopP float64
	// Nonce decorrelates repeated identical requests.
	Nonce int64
}

// BatchRequest asks a backend to classify a batch of frames under one
// set of options.
type BatchRequest struct {
	Items   []Item
	Options Options
}

// BatchResult is a backend's answer to a BatchRequest.
type BatchResult struct {
	// Answers[i] holds Items[i]'s per-indicator answers, aligned with
	// Options.Indicators.
	Answers [][]bool
}

// Capabilities are the hints a backend gives the engine about how it
// wants to be driven.
type Capabilities struct {
	// PerceivedFeatures reports whether the backend consumes the
	// engine's precomputed perception features (Item.Feats). Only in-process classifiers with a
	// ClassifyPerceived fast path support this.
	PerceivedFeatures bool
	// PreferredBatch is the batch size the backend wants per Classify
	// call; values < 1 mean one frame per call.
	PreferredBatch int
	// MaxConcurrency caps concurrent Classify calls; zero or negative
	// means unbounded. Every in-repo backend is now reentrant (the NN
	// models gained a stateless inference path), so only remote adapters
	// with connection budgets bound this.
	MaxConcurrency int
	// RenderSize is the square frame resolution the backend requires;
	// zero means the engine's default (the LLM render size).
	RenderSize int
	// Quantized reports that the backend's model runs the int8 inference
	// path instead of f32 — surfaced so reports and the serve gateway can
	// attribute throughput and accuracy drift to the quantized kernels.
	Quantized bool
}

// Backend classifies batches of street-view frames.
type Backend interface {
	// Name identifies the backend in logs, reports, and errors.
	Name() string
	// Capabilities returns the backend's driving hints; it must be
	// constant over the backend's lifetime.
	Capabilities() Capabilities
	// Classify answers the batch. Implementations must honor context
	// cancellation and return answer vectors aligned with
	// req.Options.Indicators for every item.
	Classify(ctx context.Context, req BatchRequest) (BatchResult, error)
}

// ComputeStats counts a backend's model-level inference dispatches,
// split by numeric path. The serve gateway's /metricsz merges these
// per-backend counters with the process-wide tensor kernel counters.
type ComputeStats struct {
	// F32Infers and QuantizedInfers count forward passes dispatched to
	// the float32 and int8 paths respectively.
	F32Infers       uint64 `json:"f32_infers"`
	QuantizedInfers uint64 `json:"quantized_infers"`
}

// ComputeStatser is the optional interface backends with an in-process
// neural model implement to expose their dispatch counters. Stats
// returns a snapshot; counters only grow over the backend's lifetime.
type ComputeStatser interface {
	ComputeStats() ComputeStats
}

// StatsOf snapshots a backend's compute counters, reporting ok=false
// for backends without an in-process model.
func StatsOf(b Backend) (ComputeStats, bool) {
	if s, ok := b.(ComputeStatser); ok {
		return s.ComputeStats(), true
	}
	return ComputeStats{}, false
}

// Close releases a backend's owned resources. Adapters that hold
// resources beyond process memory — today the HTTP adapter's pooled
// idle connections, and Voting composites over such members —
// implement io.Closer; Close forwards to it and is a no-op for every
// other backend. Registry consumers (the experiment runner, the serve
// gateway's warm pool) call it when they retire a backend they opened.
func Close(b Backend) error {
	if c, ok := b.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
