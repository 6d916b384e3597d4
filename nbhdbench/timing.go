package main

import (
	"context"

	"nbhd/internal/backend"
)

// timedBackend records one span per Classify call of the backend it
// wraps. Name and Capabilities come from the embedded backend, so the
// engine and the gateway shape batches exactly as they would unwrapped,
// and answers pass through untouched.
type timedBackend struct {
	backend.Backend
	rec  *Recorder
	span string
	// frameOf, when set, names the corpus frame an item carries; it runs
	// after the span's clock stops.
	frameOf func(backend.Item) int
}

func (t *timedBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	ctx, o := t.rec.Start(ctx, t.span)
	res, err := t.Backend.Classify(ctx, req)
	sp := o.End(len(req.Items))
	if t.frameOf != nil {
		sp.Frames = make([]int, len(req.Items))
		for i, it := range req.Items {
			sp.Frames[i] = t.frameOf(it)
		}
	}
	o.Record()
	return res, err
}
