package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/metrics"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// walkSet walks the first n corpus frames once for jobs built by
// answerJob, each backend under its own options, and scores each.
func walkSet(t *testing.T, ev *Evaluator, backends []backend.Backend, opts []LLMOptions, n int, keep bool) ([]*metrics.ClassReport, error) {
	t.Helper()
	answers := make([][][scene.NumIndicators]bool, len(backends))
	jobs := make([]frameJob, len(backends))
	for i, b := range backends {
		answers[i] = make([][scene.NumIndicators]bool, n)
		jobs[i] = ev.answerJob(b, opts[i], answers[i])
	}
	if _, err := ev.walk(context.Background(), jobs, func(batches []int) [][2]int { return frameSpans(n, batches) }, keep); err != nil {
		return nil, err
	}
	reports := make([]*metrics.ClassReport, len(backends))
	for i := range answers {
		reports[i] = ev.pipe.score(answers[i])
	}
	return reports, nil
}

// TestWalkMixesSizesAndConditions: one walk over backends at two render
// sizes (96 for the models, 64 for the CNN), each size under two
// capture conditions, reproduces every backend's serial reference on
// both paths and renders each frame once per size.
func TestWalkMixesSizesAndConditions(t *testing.T) {
	cnn, err := classify.New(classify.Config{InputSize: 64, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cnnBackend, err := backend.NewCNN(cnn, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gemini, claude := testModel(t, vlm.Gemini15Pro), testModel(t, vlm.Claude37)
	refs := map[string]*Pipeline{"clean": smallPipeline(t, 10)}
	night, err := NewPipeline(Config{Coordinates: 10, Seed: 5, DetectorInputSize: 32, LLMRenderSize: 96, Condition: "night"})
	if err != nil {
		t.Fatal(err)
	}
	refs["night"] = night
	cnnRef := func(cond string) *metrics.ClassReport {
		ref := refs[cond]
		indices := make([]int, ref.Study.Len())
		for i := range indices {
			indices[i] = i
		}
		examples, err := ref.Study.RenderExamples(indices, 64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cnn.Evaluate(examples, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	vlmRef := func(c backend.Classifier, cond string) *metrics.ClassReport {
		want, err := evaluateClassifierSerial(refs[cond], c, LLMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	backends := []backend.Backend{wrap(t, gemini), cnnBackend, wrap(t, claude), cnnBackend}
	opts := []LLMOptions{{}, {Condition: "night"}, {Condition: "night"}, {Condition: "clean"}}
	wants := []*metrics.ClassReport{vlmRef(gemini, "clean"), cnnRef("night"), vlmRef(claude, "night"), cnnRef("clean")}
	for _, keep := range []bool{true, false} {
		for _, workers := range []int{1, 3} {
			p := smallPipeline(t, 10)
			got, err := walkSet(t, p.NewEvaluator(EvalConfig{Workers: workers}), backends, opts, p.Study.Len(), keep)
			if err != nil {
				t.Fatalf("keep=%v workers=%d: %v", keep, workers, err)
			}
			for i := range got {
				if *got[i] != *wants[i] {
					t.Errorf("keep=%v workers=%d: backend %d (%+v) diverges from serial", keep, workers, i, opts[i])
				}
			}
			if got, want := p.RenderCache().Renders(), int64(2*p.Study.Len()); got != want {
				t.Errorf("keep=%v workers=%d: renders = %d, want %d (one per frame per size)", keep, workers, got, want)
			}
		}
	}
}

// TestWalkKeepsBatchPartition: in a set with mixed preferred batches,
// each backend is asked about exactly the chunks a sweep of its own
// would make — its own batch size, each starting at a multiple of it,
// the last cut at the frame limit.
func TestWalkKeepsBatchPartition(t *testing.T) {
	batches := []int{1, 3, 7, 16}
	for _, limit := range []int{0, 7} {
		for _, keep := range []bool{true, false} {
			for _, workers := range []int{1, 2, 8} {
				p := smallPipeline(t, 10)
				hbs := make([]*hintedBackend, len(batches))
				backends := make([]backend.Backend, len(batches))
				for i, b := range batches {
					hbs[i] = &hintedBackend{caps: backend.Capabilities{PreferredBatch: b}}
					backends[i] = hbs[i]
				}
				if _, err := p.NewEvaluator(EvalConfig{Workers: workers}).SweepBackendSet(context.Background(), backends, LLMOptions{FrameLimit: limit}, keep); err != nil {
					t.Fatal(err)
				}
				n := p.Study.Len()
				if limit > 0 {
					n = limit
				}
				for i, b := range batches {
					var want []string
					for start := 0; start < n; start += b {
						var ids []string
						for f := start; f < min(start+b, n); f++ {
							ids = append(ids, p.Study.Frames[f].Scene.ID)
						}
						want = append(want, strings.Join(ids, ","))
					}
					got := make([]string, len(hbs[i].calls))
					for k, ids := range hbs[i].calls {
						got[k] = strings.Join(ids, ",")
					}
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Errorf("limit=%d keep=%v workers=%d: batch-%d backend saw %q, want %q", limit, keep, workers, b, got, want)
					}
				}
			}
		}
	}
}

// TestWalkHonorsMaxConcurrency: every backend of a set stays within its
// own MaxConcurrency while the walk runs more workers than that.
func TestWalkHonorsMaxConcurrency(t *testing.T) {
	p := smallPipeline(t, 8)
	hbs := []*hintedBackend{
		{caps: backend.Capabilities{PreferredBatch: 2, MaxConcurrency: 1}},
		{caps: backend.Capabilities{PreferredBatch: 2, MaxConcurrency: 2}},
		{caps: backend.Capabilities{PreferredBatch: 1}},
	}
	backends := make([]backend.Backend, len(hbs))
	for i := range hbs {
		backends[i] = hbs[i]
	}
	if _, err := p.NewEvaluator(EvalConfig{Workers: 8}).SweepBackendSet(context.Background(), backends, LLMOptions{}, false); err != nil {
		t.Fatal(err)
	}
	for i, limit := range []int{1, 2} {
		if hbs[i].maxSeen > limit {
			t.Errorf("backend %d: %d concurrent Classify calls, MaxConcurrency %d", i, hbs[i].maxSeen, limit)
		}
	}
	if hbs[2].maxSeen < 2 {
		t.Errorf("unbounded backend peaked at %d concurrent calls over 8 workers", hbs[2].maxSeen)
	}
}

// faultyBackend answers like hintedBackend, except that it fails on
// frames whose corpus index is in failOn: with err, or (when err is
// nil) by blocking until the walk is canceled. shape, when set, makes
// it answer with wrong shapes instead.
type faultyBackend struct {
	name   string
	ids    map[string]int
	failOn map[int]bool
	err    error
	shape  string
}

func (f *faultyBackend) Name() string                       { return f.name }
func (f *faultyBackend) Capabilities() backend.Capabilities { return backend.Capabilities{} }
func (f *faultyBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	out := make([][]bool, len(req.Items))
	for i, it := range req.Items {
		out[i] = make([]bool, scene.NumIndicators)
		if !f.failOn[f.ids[it.ID]] {
			continue
		}
		switch {
		case f.shape == "count":
			return backend.BatchResult{Answers: out[:0]}, nil
		case f.shape == "width":
			out[i] = out[i][:2]
		case f.err != nil:
			return backend.BatchResult{}, f.err
		default:
			<-ctx.Done()
			return backend.BatchResult{}, ctx.Err()
		}
	}
	return backend.BatchResult{Answers: out}, nil
}

// TestWalkFirstError: the first error in input order wins, prefixed
// with its backend's name; cancellations it induced in other backends
// are skipped; the answer-shape and condition checks keep their exact
// texts.
func TestWalkFirstError(t *testing.T) {
	p := smallPipeline(t, 4)
	ids := make(map[string]int, p.Study.Len())
	for i, fr := range p.Study.Frames {
		ids[fr.Scene.ID] = i
	}
	all := make(map[int]bool, p.Study.Len())
	for i := range p.Study.Frames {
		all[i] = true
	}
	ok := &faultyBackend{name: "ok", ids: ids}
	boomA := &faultyBackend{name: "a", ids: ids, failOn: all, err: errors.New("boom-a")}
	boomB := &faultyBackend{name: "b", ids: ids, failOn: all, err: errors.New("boom-b")}
	blocker := &faultyBackend{name: "blocker", ids: ids, failOn: map[int]bool{0: true}}
	lateBoom := &faultyBackend{name: "late", ids: ids, failOn: map[int]bool{5: true}, err: errors.New("boom-late")}
	id0 := p.Study.Frames[0].Scene.ID
	cases := []struct {
		name     string
		backends []backend.Backend
		opts     LLMOptions
		want     string
	}{
		{"input order", []backend.Backend{ok, boomA, boomB}, LLMOptions{}, "core: a: core: boom-a"},
		{"induced cancellation skipped", []backend.Backend{blocker, lateBoom}, LLMOptions{}, "core: late: core: boom-late"},
		{"answer count", []backend.Backend{ok, &faultyBackend{name: "short", ids: ids, failOn: all, shape: "count"}}, LLMOptions{},
			"core: short: core: backend short returned 0 answer vectors for 1 items"},
		{"answer width", []backend.Backend{&faultyBackend{name: "narrow", ids: ids, failOn: map[int]bool{0: true}, shape: "width"}}, LLMOptions{},
			fmt.Sprintf("core: narrow: core: backend narrow answered 2 indicators for %s, want %d", id0, scene.NumIndicators)},
		{"unknown condition", []backend.Backend{ok, boomA}, LLMOptions{Condition: "fog"},
			`core: ok: core: unknown capture condition "fog" (have [clean night noise occlusion])`},
	}
	for _, tc := range cases {
		for _, keep := range []bool{true, false} {
			for _, workers := range []int{1, 2, 4} {
				_, err := p.NewEvaluator(EvalConfig{Workers: workers}).SweepBackendSet(context.Background(), tc.backends, tc.opts, keep)
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s keep=%v workers=%d: err = %v, want %s", tc.name, keep, workers, err, tc.want)
				}
			}
		}
	}
}

// TestWalkKeepsNothing: a walk that keeps no frames leaves the render
// and perception caches empty, so a later walk that keeps them renders
// every frame again — and reports the same.
func TestWalkKeepsNothing(t *testing.T) {
	p := smallPipeline(t, 4)
	ev := p.NewEvaluator(EvalConfig{Workers: 2})
	fresh, err := ev.SweepBackendSet(context.Background(), modelBackends(t), LLMOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	p.featCache.Range(func(any, any) bool { entries++; return true })
	if entries != 0 {
		t.Errorf("perception cache holds %d entries after a walk that keeps nothing", entries)
	}
	kept, err := ev.SweepBackendSet(context.Background(), modelBackends(t), LLMOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.RenderCache().Renders(), int64(2*p.Study.Len()); got != want {
		t.Errorf("renders = %d, want %d (the walk that kept nothing left no frame behind)", got, want)
	}
	p.featCache.Range(func(any, any) bool { entries++; return true })
	if entries != p.Study.Len() {
		t.Errorf("perception cache holds %d entries after a walk that keeps frames, want %d", entries, p.Study.Len())
	}
	for i := range fresh {
		if *fresh[i].Report != *kept[i].Report {
			t.Errorf("backend %d: the two paths report differently", i)
		}
	}
}

// TestFrameSpans pins the walk's frame batches: the lcm of the batch
// sizes, capped at the frames swept.
func TestFrameSpans(t *testing.T) {
	for _, tc := range []struct {
		n       int
		batches []int
		want    [][2]int
	}{
		{5, []int{1}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		{10, []int{2, 3}, [][2]int{{0, 6}, {6, 10}}},
		{10, []int{4, 4}, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{40, []int{1, 3, 7, 16}, [][2]int{{0, 40}}},
		{7, []int{16}, [][2]int{{0, 7}}},
		{0, []int{3}, [][2]int{}},
	} {
		if got := frameSpans(tc.n, tc.batches); !slices.Equal(got, tc.want) {
			t.Errorf("frameSpans(%d, %v) = %v, want %v", tc.n, tc.batches, got, tc.want)
		}
	}
}
