package main

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/render"
	"nbhd/internal/scene"
)

// fakeBackend answers from the item IDs and remembers its batch sizes.
type fakeBackend struct {
	caps  backend.Capabilities
	mu    sync.Mutex
	sizes []int
}

func (f *fakeBackend) Name() string                       { return "fake" }
func (f *fakeBackend) Capabilities() backend.Capabilities { return f.caps }

func (f *fakeBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	f.mu.Lock()
	f.sizes = append(f.sizes, len(req.Items))
	f.mu.Unlock()
	out := make([][]bool, len(req.Items))
	for i, it := range req.Items {
		out[i] = make([]bool, len(req.Options.Indicators))
		for k := range out[i] {
			out[i][k] = (len(it.ID)+int(it.ID[len(it.ID)-1])+k)%3 == 0
		}
	}
	return backend.BatchResult{Answers: out}, nil
}

func TestTimedBackendPassesThrough(t *testing.T) {
	inner := &fakeBackend{caps: backend.Capabilities{PreferredBatch: 16, RenderSize: 64, MaxConcurrency: 3, PerceivedFeatures: true}}
	rec := NewRecorder()
	wrapped := &timedBackend{Backend: inner, rec: rec, span: "backend.classify", frameOf: func(it backend.Item) int { return len(it.ID) }}
	if wrapped.Name() != inner.Name() || wrapped.Capabilities() != inner.Capabilities() {
		t.Fatalf("wrapper reports %q %+v, backend %q %+v", wrapped.Name(), wrapped.Capabilities(), inner.Name(), inner.Capabilities())
	}
	inds := scene.Indicators()
	img := render.MustNewImage(2, 2)
	req := backend.BatchRequest{
		Items:   []backend.Item{{ID: "a1", Image: img}, {ID: "bb2", Image: img}, {ID: "c", Image: img}},
		Options: backend.Options{Indicators: inds[:]},
	}
	want, err := inner.Classify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Classify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped answers %v, direct %v", got.Answers, want.Answers)
	}
	spans := rec.Named("backend.classify")
	if len(spans) != 1 || spans[0].Items != 3 || !slices.Equal(spans[0].Frames, []int{2, 3, 1}) {
		t.Fatalf("spans = %+v, want one span of 3 items naming frames [2 3 1]", spans)
	}
}

// The engine shapes batches from Capabilities, so a wrapped backend must
// see exactly the batches the bare one sees, and produce the same report.
func TestTimedBackendKeepsEngineBatches(t *testing.T) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ev := pipe.NewEvaluator(core.EvalConfig{Workers: 2})
	ctx := context.Background()

	bare := &fakeBackend{caps: backend.Capabilities{PreferredBatch: 3}}
	want, err := ev.EvaluateBackend(ctx, bare, core.LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeBackend{caps: bare.caps}
	rec := NewRecorder()
	got, err := ev.EvaluateBackend(ctx, &timedBackend{Backend: inner, rec: rec, span: "b"}, core.LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the wrapped backend's report differs from the bare backend's")
	}
	slices.Sort(bare.sizes)
	slices.Sort(inner.sizes)
	if !slices.Equal(bare.sizes, inner.sizes) || !slices.Equal(bare.sizes, []int{2, 3, 3}) {
		t.Fatalf("batch sizes: bare %v, wrapped %v; want [2 3 3]", bare.sizes, inner.sizes)
	}
	var spanSizes []int
	for _, s := range rec.Named("b") {
		spanSizes = append(spanSizes, s.Items)
	}
	slices.Sort(spanSizes)
	if !slices.Equal(spanSizes, inner.sizes) {
		t.Fatalf("span item counts %v, batches %v", spanSizes, inner.sizes)
	}
}
