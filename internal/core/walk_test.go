package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/metrics"
	"nbhd/internal/prompt"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// walkSet walks the corpus once for backends, each under its own
// options, and returns their reports.
func walkSet(ev *Evaluator, backends []backend.Backend, opts []LLMOptions) ([]*metrics.ClassReport, error) {
	jobs := make([]SweepJob, len(backends))
	for i, b := range backends {
		jobs[i] = SweepJob{Backend: b, Options: opts[i]}
	}
	sweeps, _, _, err := ev.Walk(context.Background(), jobs, nil)
	if err != nil {
		return nil, err
	}
	reports := make([]*metrics.ClassReport, len(sweeps))
	for i := range sweeps {
		reports[i] = sweeps[i].Report
	}
	return reports, nil
}

// TestWalkMixesSizesAndConditions: one walk over backends at two render
// sizes (96 for the models, 64 for the CNN), each size under two
// capture conditions, reproduces every backend's serial reference on
// every worker budget and renders each frame once per size.
func TestWalkMixesSizesAndConditions(t *testing.T) {
	cnn, err := classify.New(classify.Config{InputSize: 64, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cnnBackend, err := backend.NewCNN(cnn, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gemini, claude := wrap(t, testModel(t, vlm.Gemini15Pro)), wrap(t, testModel(t, vlm.Claude37))
	refs := map[string]*Pipeline{"clean": smallPipeline(t, 10)}
	night, err := NewPipeline(Config{Coordinates: 10, Seed: 5, DetectorInputSize: 32, LLMRenderSize: 96, Condition: "night"})
	if err != nil {
		t.Fatal(err)
	}
	refs["night"] = night
	ref := func(b backend.Backend, cond string) *metrics.ClassReport {
		want, err := evaluateClassifierSerial(refs[cond], b, LLMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	backends := []backend.Backend{gemini, cnnBackend, claude, cnnBackend}
	opts := []LLMOptions{{}, {Condition: "night"}, {Condition: "night"}, {Condition: "clean"}}
	wants := []*metrics.ClassReport{ref(gemini, "clean"), ref(cnnBackend, "night"), ref(claude, "night"), ref(cnnBackend, "clean")}
	for _, workers := range []int{1, 3} {
		p := smallPipeline(t, 10)
		got, err := walkSet(p.NewEvaluator(EvalConfig{Workers: workers}), backends, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if *got[i] != *wants[i] {
				t.Errorf("workers=%d: backend %d (%+v) diverges from serial", workers, i, opts[i])
			}
		}
		if got, want := p.RenderCache().Renders(), int64(2*p.Study.Len()); got != want {
			t.Errorf("workers=%d: renders = %d, want %d (one per frame per size)", workers, got, want)
		}
	}
}

// TestWalkKeepsBatchPartition: in a walk with mixed preferred batches
// and frame limits, each job is asked about exactly the chunks a walk of
// its own would make — its own batch size, each starting at a multiple
// of it, the last cut at its frame limit.
func TestWalkKeepsBatchPartition(t *testing.T) {
	batches := []int{1, 3, 7, 16}
	for _, limits := range [][]int{{0, 0, 0, 0}, {7, 7, 7, 7}, {5, 0, 7, 13}} {
		for _, workers := range []int{1, 2, 8} {
			p := smallPipeline(t, 10)
			hbs := make([]*hintedBackend, len(batches))
			backends := make([]backend.Backend, len(batches))
			opts := make([]LLMOptions, len(batches))
			for i, b := range batches {
				hbs[i] = &hintedBackend{caps: backend.Capabilities{PreferredBatch: b}}
				backends[i] = hbs[i]
				opts[i] = LLMOptions{FrameLimit: limits[i]}
			}
			if _, err := walkSet(p.NewEvaluator(EvalConfig{Workers: workers}), backends, opts); err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				n := p.Study.Len()
				if limits[i] > 0 {
					n = limits[i]
				}
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
					t.Errorf("limits=%v workers=%d: batch-%d backend saw %q, want %q", limits, workers, b, got, want)
				}
			}
		}
	}
}

// TestWalkHonorsMaxConcurrency: every backend stays within its own
// MaxConcurrency while the walk runs more workers than that, also when
// one backend serves several jobs of the walk.
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
	if _, err := walkSet(p.NewEvaluator(EvalConfig{Workers: 8}), backends, make([]LLMOptions, len(backends))); err != nil {
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

	shared := &hintedBackend{caps: backend.Capabilities{PreferredBatch: 2, MaxConcurrency: 1}}
	opts := []LLMOptions{{}, {Language: prompt.Spanish}}
	if _, err := walkSet(p.NewEvaluator(EvalConfig{Workers: 8}), []backend.Backend{shared, shared}, opts); err != nil {
		t.Fatal(err)
	}
	if shared.maxSeen != 1 {
		t.Errorf("backend serving two jobs: %d concurrent Classify calls, MaxConcurrency 1", shared.maxSeen)
	}
	if got, want := len(shared.calls), p.Study.Len(); got != want {
		t.Errorf("backend serving two jobs of 2-frame chunks got %d calls, want %d", got, want)
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
		analysis backend.Backend
		want     string
		wantJob  int
	}{
		{"input order", []backend.Backend{ok, boomA, boomB}, LLMOptions{}, nil, "core: a: core: boom-a", 1},
		{"induced cancellation skipped", []backend.Backend{blocker, lateBoom}, LLMOptions{}, nil, "core: late: core: boom-late", 1},
		{"analysis after the sweeps", []backend.Backend{ok}, LLMOptions{}, boomB, "core: b: core: boom-b", 1},
		{"answer count", []backend.Backend{ok, &faultyBackend{name: "short", ids: ids, failOn: all, shape: "count"}}, LLMOptions{}, nil,
			"core: short: core: backend short returned 0 answer vectors for 1 items", 1},
		{"answer width", []backend.Backend{&faultyBackend{name: "narrow", ids: ids, failOn: map[int]bool{0: true}, shape: "width"}}, LLMOptions{}, nil,
			fmt.Sprintf("core: narrow: core: backend narrow answered 2 indicators for %s, want %d", id0, scene.NumIndicators), 0},
		{"unknown condition", []backend.Backend{ok, boomA}, LLMOptions{Condition: "fog"}, nil,
			`core: ok: core: unknown capture condition "fog" (have [clean night noise occlusion])`, 0},
	}
	for _, tc := range cases {
		jobs := make([]SweepJob, len(tc.backends))
		for i, b := range tc.backends {
			jobs[i] = SweepJob{Backend: b, Options: tc.opts}
		}
		var analyses []AnalysisJob
		if tc.analysis != nil {
			analyses = []AnalysisJob{{Backend: tc.analysis, TractFeet: 2000}}
		}
		for _, workers := range []int{1, 2, 4} {
			_, _, job, err := p.NewEvaluator(EvalConfig{Workers: workers}).Walk(context.Background(), jobs, analyses)
			if err == nil || err.Error() != tc.want || job != tc.wantJob {
				t.Errorf("%s workers=%d: job %d err = %v, want job %d %s", tc.name, workers, job, err, tc.wantJob, tc.want)
			}
		}
	}
}

// TestWalkMatchesJobsAlone: one walk of sweep jobs under different
// languages, capture conditions, render sizes and frame limits, plus an
// analysis job, gives every job exactly what a walk of that job alone
// gives it, and renders each frame once per size.
func TestWalkMatchesJobsAlone(t *testing.T) {
	cnn, err := classify.New(classify.Config{InputSize: 64, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cnnBackend, err := backend.NewCNN(cnn, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gemini := wrap(t, testModel(t, vlm.Gemini15Pro))
	sweeps := []SweepJob{
		{Backend: gemini},
		{Backend: gemini, Options: LLMOptions{Language: prompt.Spanish, FrameLimit: 13}},
		{Backend: wrap(t, testModel(t, vlm.Claude37)), Options: LLMOptions{Condition: "night", FrameLimit: 7}},
		{Backend: cnnBackend},
		{Backend: cnnBackend, Options: LLMOptions{Condition: "noise", FrameLimit: 21}},
	}
	analyses := []AnalysisJob{{Backend: wrap(t, testCommittee(t)), TractFeet: 3000}}

	wantSweeps := make([]BackendSweep, len(sweeps))
	for i := range sweeps {
		got, _, _, err := smallPipeline(t, 10).NewEvaluator(EvalConfig{}).Walk(context.Background(), sweeps[i:i+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSweeps[i] = got[0]
	}
	_, wantAnalyses, _, err := smallPipeline(t, 10).NewEvaluator(EvalConfig{}).Walk(context.Background(), nil, analyses)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		p := smallPipeline(t, 10)
		got, analyzed, _, err := p.NewEvaluator(EvalConfig{Workers: workers}).Walk(context.Background(), sweeps, analyses)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range sweeps {
			if *got[i].Report != *wantSweeps[i].Report || !slices.Equal(got[i].Answers, wantSweeps[i].Answers) {
				t.Errorf("workers=%d: sweep job %d (%+v) diverges from its walk alone", workers, i, sweeps[i].Options)
			}
		}
		if !reflect.DeepEqual(analyzed, wantAnalyses) {
			t.Errorf("workers=%d: analysis job diverges from its walk alone", workers)
		}
		if got, want := p.RenderCache().Renders(), int64(2*p.Study.Len()); got != want {
			t.Errorf("workers=%d: renders = %d, want %d (every frame once at each of two sizes)", workers, got, want)
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
