package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/yolo"

	"nbhd/internal/ensemble"
	"nbhd/internal/metrics"
	"nbhd/internal/prompt"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// evaluateClassifierSerial is the pre-cache, pre-concurrency reference
// implementation: re-render the corpus at b's render size, ask b about
// one frame at a time without perception features, and accumulate one
// report in frame order. The tests below assert the concurrent path
// reproduces it bit-for-bit.
func evaluateClassifierSerial(p *Pipeline, b backend.Backend, opts LLMOptions) (*metrics.ClassReport, error) {
	frames := p.Study.Frames
	if opts.FrameLimit > 0 && opts.FrameLimit < len(frames) {
		frames = frames[:opts.FrameLimit]
	}
	indices := make([]int, len(frames))
	for i := range indices {
		indices[i] = i
	}
	size := b.Capabilities().RenderSize
	if size == 0 {
		size = p.cfg.LLMRenderSize
	}
	examples, err := p.Study.RenderExamples(indices, size)
	if err != nil {
		return nil, err
	}
	inds := scene.Indicators()
	var report metrics.ClassReport
	for i, ex := range examples {
		res, err := b.Classify(context.Background(), backend.BatchRequest{
			Items: []backend.Item{{ID: ex.ID, Image: ex.Image}},
			Options: backend.Options{
				Indicators:  inds[:],
				Language:    opts.Language,
				Mode:        opts.Mode,
				Temperature: opts.Temperature,
				TopP:        opts.TopP,
			},
		})
		if err != nil {
			return nil, err
		}
		var pred [scene.NumIndicators]bool
		copy(pred[:], res.Answers[0])
		report.AddVector(pred, frames[i].Scene.Presence())
	}
	return &report, nil
}

func testModel(t *testing.T, id vlm.ModelID) *vlm.Model {
	t.Helper()
	profile, err := vlm.ProfileFor(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vlm.NewModel(profile)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testCommittee(t *testing.T) *ensemble.Committee {
	t.Helper()
	committee, err := ensemble.PaperCommittee()
	if err != nil {
		t.Fatal(err)
	}
	return committee
}

// wrap adapts a test classifier to the backend layer with the adapter
// its family opens through.
func wrap(t *testing.T, c backend.Classifier) backend.Backend {
	t.Helper()
	var (
		b   backend.Backend
		err error
	)
	switch v := c.(type) {
	case *vlm.Model:
		b, err = backend.NewVLM(v)
	case *ensemble.Committee:
		b, err = backend.NewCommittee(v)
	default:
		b, err = backend.NewLocal("test", c)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// modelBackends wraps the four builtin models in vlm.AllModels order.
func modelBackends(t *testing.T) []backend.Backend {
	t.Helper()
	out := make([]backend.Backend, 0, len(vlm.AllModels()))
	for _, id := range vlm.AllModels() {
		out = append(out, wrap(t, testModel(t, id)))
	}
	return out
}

// voteTopThree majority-votes the three most accurate models of an
// all-models sweep (reports in vlm.AllModels order) through the voting
// composite — the paper's Fig. 5 last bar — and returns the committee in
// rank order with its report.
func voteTopThree(t *testing.T, ev *Evaluator, reports []*metrics.ClassReport, opts LLMOptions) ([]vlm.ModelID, *metrics.ClassReport) {
	t.Helper()
	byName := make(map[string]*metrics.ClassReport, len(reports))
	for i, id := range vlm.AllModels() {
		byName[string(id)] = reports[i]
	}
	top, err := ensemble.SelectTop(byName, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]vlm.ModelID, 0, len(top))
	members := make([]backend.Backend, 0, len(top))
	for _, s := range top {
		ids = append(ids, vlm.ModelID(s.ID))
		members = append(members, wrap(t, testModel(t, vlm.ModelID(s.ID))))
	}
	voting, err := backend.NewVoting("majority voting", members...)
	if err != nil {
		t.Fatal(err)
	}
	report, err := ev.EvaluateBackend(context.Background(), voting, opts)
	if err != nil {
		t.Fatalf("voting sweep: %v", err)
	}
	return ids, report
}

// TestEvaluatorMatchesSerial asserts the concurrent evaluator reproduces
// the serial reference bit-for-bit: same classifier, same options, same
// ClassReport — for single models, the voting committee, non-default
// request options, and FrameLimit, at several worker widths.
func TestEvaluatorMatchesSerial(t *testing.T) {
	p := smallPipeline(t, 12)
	cases := []struct {
		name       string
		classifier backend.Classifier
		opts       LLMOptions
	}{
		{"gemini", testModel(t, vlm.Gemini15Pro), LLMOptions{}},
		{"chatgpt", testModel(t, vlm.ChatGPT4oMini), LLMOptions{}},
		{"claude", testModel(t, vlm.Claude37), LLMOptions{}},
		{"grok", testModel(t, vlm.Grok2), LLMOptions{}},
		{"committee", testCommittee(t), LLMOptions{}},
		{"sequential-spanish", testModel(t, vlm.Gemini15Pro), LLMOptions{Language: prompt.Spanish, Mode: prompt.Sequential}},
		{"sampling", testModel(t, vlm.Grok2), LLMOptions{Temperature: 1.5, TopP: 0.5}},
		{"frame-limit", testModel(t, vlm.Claude37), LLMOptions{FrameLimit: 7}},
		{"frame-limit-committee", testCommittee(t), LLMOptions{FrameLimit: 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := evaluateClassifierSerial(p, wrap(t, tc.classifier), tc.opts)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{1, 3, 16} {
				ev := p.NewEvaluator(EvalConfig{Workers: workers})
				got, err := ev.EvaluateBackend(context.Background(), wrap(t, tc.classifier), tc.opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if *got != *want {
					t.Errorf("workers=%d: report diverges from serial\ngot:  %+v\nwant: %+v", workers, *got, *want)
				}
			}
		})
	}
}

// batchedBackend overrides a backend's preferred batch size.
type batchedBackend struct {
	backend.Backend
	batch int
}

func (b batchedBackend) Capabilities() backend.Capabilities {
	caps := b.Backend.Capabilities()
	caps.PreferredBatch = b.batch
	return caps
}

// TestEvaluateBackendSetMatchesSerial asserts the frame-major walk over
// a backend set matches per-backend serial references across worker
// budgets, frame limits (7 is not a multiple of any batch size used)
// and sets with mixed batch sizes — {1, 3, 7, 16} has an lcm of 336,
// above the 40-frame corpus — and that every walk renders each frame it
// asks about exactly once.
func TestEvaluateBackendSetMatchesSerial(t *testing.T) {
	type entry struct {
		classifier backend.Classifier
		batch      int
	}
	gemini, chatgpt := testModel(t, vlm.Gemini15Pro), testModel(t, vlm.ChatGPT4oMini)
	claude, grok := testModel(t, vlm.Claude37), testModel(t, vlm.Grok2)
	sets := [][]entry{
		{{claude, 3}},
		{{gemini, 1}, {testCommittee(t), 4}, {grok, 0}},
		{{chatgpt, 2}, {gemini, 0}, {claude, 5}, {grok, 3}, {testCommittee(t), 1}},
		{{gemini, 1}, {chatgpt, 3}, {claude, 7}, {grok, 16}},
	}
	ref := smallPipeline(t, 10)
	for _, limit := range []int{0, 7} {
		opts := LLMOptions{FrameLimit: limit}
		wants := make(map[backend.Classifier]*metrics.ClassReport)
		for _, set := range sets {
			for _, en := range set {
				if wants[en.classifier] != nil {
					continue
				}
				want, err := evaluateClassifierSerial(ref, wrap(t, en.classifier), opts)
				if err != nil {
					t.Fatal(err)
				}
				wants[en.classifier] = want
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			p := smallPipeline(t, 10)
			ev := p.NewEvaluator(EvalConfig{Workers: workers})
			for _, set := range sets {
				backends := make([]backend.Backend, len(set))
				for i, en := range set {
					backends[i] = batchedBackend{Backend: wrap(t, en.classifier), batch: en.batch}
				}
				got, err := ev.EvaluateBackendSet(context.Background(), backends, opts)
				if err != nil {
					t.Fatalf("limit=%d workers=%d set of %d: %v", limit, workers, len(set), err)
				}
				if len(got) != len(set) {
					t.Fatalf("limit=%d workers=%d: reports = %d, want %d", limit, workers, len(got), len(set))
				}
				for i, en := range set {
					if *got[i] != *wants[en.classifier] {
						t.Errorf("limit=%d workers=%d set of %d: backend %d (batch %d) diverges from serial", limit, workers, len(set), i, en.batch)
					}
				}
			}
			frames := int64(p.Study.Len())
			if limit > 0 {
				frames = int64(limit)
			}
			if got, want := p.RenderCache().Renders(), frames*int64(len(sets)); got != want {
				t.Errorf("limit=%d workers=%d: renders = %d, want %d", limit, workers, got, want)
			}
		}
	}
}

// sweepSet walks backends under opts, one sweep job each.
func sweepSet(t *testing.T, ev *Evaluator, backends []backend.Backend, opts LLMOptions) []BackendSweep {
	t.Helper()
	jobs := make([]SweepJob, len(backends))
	for i, b := range backends {
		jobs[i] = SweepJob{Backend: b, Options: opts}
	}
	sweeps, _, _, err := ev.Walk(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sweeps
}

// TestVotingTopThreeMatchesSerial asserts the committee sweep built from
// the concurrent reports matches the serial committee reference.
func TestVotingTopThreeMatchesSerial(t *testing.T) {
	p := smallPipeline(t, 10)
	ev := p.NewEvaluator(EvalConfig{Workers: 4})
	reports, err := ev.EvaluateBackendSet(context.Background(), modelBackends(t), LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids, report := voteTopThree(t, ev, reports, LLMOptions{})
	if len(ids) != 3 {
		t.Fatalf("committee = %v", ids)
	}
	members := make([]*vlm.Model, 0, 3)
	for _, id := range ids {
		members = append(members, testModel(t, id))
	}
	committee, err := ensemble.NewCommittee(members...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evaluateClassifierSerial(p, wrap(t, committee), LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *report != *want {
		t.Error("voting report diverges from serial committee reference")
	}
}

// TestVoteMatchesVotingBackend asserts that voting the answers of an
// all-models sweep reproduces the voting composite's sweep under the
// same options, including a FrameLimit that cuts the answers short.
func TestVoteMatchesVotingBackend(t *testing.T) {
	p := smallPipeline(t, 10)
	ev := p.NewEvaluator(EvalConfig{Workers: 3})
	for _, opts := range []LLMOptions{{}, {FrameLimit: 7}, {Language: prompt.Bengali, Mode: prompt.Sequential, Temperature: 1.2}} {
		sweeps := sweepSet(t, ev, modelBackends(t), opts)
		reports := make([]*metrics.ClassReport, len(sweeps))
		for i := range sweeps {
			reports[i] = sweeps[i].Report
			if n := sweeps[i].Report.PerClass[0].Total(); len(sweeps[i].Answers) != n {
				t.Fatalf("%+v: %d answer vectors for %d scored frames", opts, len(sweeps[i].Answers), n)
			}
		}
		ids, want := voteTopThree(t, ev, reports, opts)
		all := vlm.AllModels()
		members := make([]BackendSweep, len(ids))
		for i, id := range ids {
			members[i] = sweeps[slices.Index(all[:], id)]
		}
		got, err := ev.Vote(members)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("%+v: vote over drawn answers diverges from the voting backend\ngot:  %+v\nwant: %+v", opts, *got, *want)
		}
		if _, err := ev.Vote([]BackendSweep{members[0], {Answers: members[1].Answers[1:]}}); err == nil {
			t.Errorf("%+v: Vote accepted members with different frame counts", opts)
		}
	}
	if _, err := ev.Vote(nil); err == nil {
		t.Error("Vote accepted no members")
	}
}

// TestEvaluatorCancellation asserts a cancelled context aborts the sweep
// with the context's error.
func TestEvaluatorCancellation(t *testing.T) {
	p := smallPipeline(t, 8)
	ev := p.NewEvaluator(EvalConfig{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ev.EvaluateBackend(ctx, wrap(t, testModel(t, vlm.Gemini15Pro)), LLMOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, err = ev.EvaluateBackendSet(ctx, modelBackends(t), LLMOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateBackendSet err = %v, want context.Canceled", err)
	}
}

// failingClassifier errors on every frame, exercising first-error
// propagation through the worker pool.
type failingClassifier struct{}

func (failingClassifier) Classify(vlm.Request) ([]bool, error) {
	return nil, errors.New("boom")
}

func TestEvaluatorFirstErrorPropagation(t *testing.T) {
	p := smallPipeline(t, 6)
	ev := p.NewEvaluator(EvalConfig{Workers: 4})
	_, err := ev.EvaluateBackend(context.Background(), wrap(t, failingClassifier{}), LLMOptions{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected classification error, got %v", err)
	}
}

// TestEvaluatorSharesRenders asserts one walk of the whole evaluation
// stack — four models, the paper's committee, a repeat sweep under
// another language and a neighborhood analysis — renders each frame
// exactly once at the LLM resolution.
func TestEvaluatorSharesRenders(t *testing.T) {
	p := smallPipeline(t, 8)
	var jobs []SweepJob
	for _, b := range modelBackends(t) {
		jobs = append(jobs, SweepJob{Backend: b})
	}
	jobs = append(jobs,
		SweepJob{Backend: wrap(t, testCommittee(t))},
		SweepJob{Backend: wrap(t, testModel(t, vlm.Gemini15Pro)), Options: LLMOptions{Language: prompt.Chinese}})
	analyses := []AnalysisJob{{Backend: wrap(t, testCommittee(t)), TractFeet: 2000}}
	if _, _, _, err := p.NewEvaluator(EvalConfig{}).Walk(context.Background(), jobs, analyses); err != nil {
		t.Fatal(err)
	}
	if got, want := p.RenderCache().Renders(), int64(p.Study.Len()); got != want {
		t.Errorf("renders = %d, want %d (one per frame)", got, want)
	}
}

// TestEvaluateBackendYOLOMatchesPresenceReport: the detector swept
// through the engine's concurrent batched walk must equal its adapter
// asked one frame at a time over the same corpus at the detector's
// resolution.
func TestEvaluateBackendYOLOMatchesPresenceReport(t *testing.T) {
	p := smallPipeline(t, 8)
	m, err := yolo.New(yolo.Config{InputSize: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.NewYOLO(m, 0.25, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.NewEvaluator(EvalConfig{Workers: 4}).EvaluateBackend(context.Background(), b, LLMOptions{})
	if err != nil {
		t.Fatalf("EvaluateBackend: %v", err)
	}
	want, err := evaluateClassifierSerial(p, b, LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("engine YOLO sweep diverges from its adapter asked frame by frame\ngot:  %+v\nwant: %+v", *got, *want)
	}
}

// TestEvaluateBackendCNNMatchesEvaluate: the scene-classification CNN
// swept through the engine must equal its adapter asked one frame at a
// time over the same corpus.
func TestEvaluateBackendCNNMatchesEvaluate(t *testing.T) {
	p := smallPipeline(t, 8)
	m, err := classify.New(classify.Config{InputSize: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.NewCNN(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.NewEvaluator(EvalConfig{Workers: 4}).EvaluateBackend(context.Background(), b, LLMOptions{})
	if err != nil {
		t.Fatalf("EvaluateBackend: %v", err)
	}
	want, err := evaluateClassifierSerial(p, b, LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("engine CNN sweep diverges from its adapter asked frame by frame\ngot:  %+v\nwant: %+v", *got, *want)
	}
}

// hintedBackend records how the engine drives it: the item IDs of
// each Classify call and the maximum number of concurrent calls.
type hintedBackend struct {
	caps     backend.Capabilities
	mu       sync.Mutex
	inFlight int
	maxSeen  int
	calls    [][]string
}

func (h *hintedBackend) Name() string                       { return "hinted" }
func (h *hintedBackend) Capabilities() backend.Capabilities { return h.caps }
func (h *hintedBackend) Classify(_ context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	h.mu.Lock()
	h.inFlight++
	if h.inFlight > h.maxSeen {
		h.maxSeen = h.inFlight
	}
	ids := make([]string, len(req.Items))
	for i := range req.Items {
		ids[i] = req.Items[i].ID
	}
	h.calls = append(h.calls, ids)
	h.mu.Unlock()
	time.Sleep(time.Millisecond)
	h.mu.Lock()
	h.inFlight--
	h.mu.Unlock()
	out := make([][]bool, len(req.Items))
	for i := range out {
		out[i] = make([]bool, scene.NumIndicators)
	}
	return backend.BatchResult{Answers: out}, nil
}

// TestEvaluateBackendHonorsCapabilityHints: batches respect
// PreferredBatch, concurrency respects MaxConcurrency, and the report
// still counts every frame.
func TestEvaluateBackendHonorsCapabilityHints(t *testing.T) {
	p := smallPipeline(t, 8) // 32 frames
	hb := &hintedBackend{caps: backend.Capabilities{PreferredBatch: 5, MaxConcurrency: 1}}
	rep, err := p.NewEvaluator(EvalConfig{Workers: 8}).EvaluateBackend(context.Background(), hb, LLMOptions{})
	if err != nil {
		t.Fatalf("EvaluateBackend: %v", err)
	}
	if hb.maxSeen != 1 {
		t.Errorf("max concurrent Classify calls = %d, want 1", hb.maxSeen)
	}
	total := 0
	for _, call := range hb.calls {
		if len(call) > 5 {
			t.Errorf("batch of %d exceeds preferred 5", len(call))
		}
		total += len(call)
	}
	if total != p.Study.Len() {
		t.Errorf("classified %d frames, want %d", total, p.Study.Len())
	}
	// All-false predictions: every actually-present indicator counts as
	// a miss, so the report total must cover all frames.
	n := 0
	for _, ind := range scene.Indicators() {
		c := rep.Of(ind)
		n += c.TP + c.FP + c.TN + c.FN
	}
	if n != p.Study.Len()*scene.NumIndicators {
		t.Errorf("report cells = %d, want %d", n, p.Study.Len()*scene.NumIndicators)
	}
}

// TestEvaluateBackendRendersAtBackendSize: a backend that asks for its
// own resolution gets it, without disturbing the LLM-resolution cache.
func TestEvaluateBackendRendersAtBackendSize(t *testing.T) {
	p := smallPipeline(t, 4)
	m, err := classify.New(classify.Config{InputSize: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.NewCNN(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewEvaluator(EvalConfig{}).EvaluateBackend(context.Background(), b, LLMOptions{}); err != nil {
		t.Fatalf("EvaluateBackend: %v", err)
	}
	// One render per frame at 32px; none at the LLM's 96px.
	if got, want := p.RenderCache().Renders(), int64(p.Study.Len()); got != want {
		t.Errorf("renders = %d, want %d", got, want)
	}
}
