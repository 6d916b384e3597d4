package backend

import (
	"context"
	"errors"
	"slices"
	"testing"

	"nbhd/internal/classify"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
	"nbhd/internal/yolo"
)

// testExamples renders the first n frames of a seeded study at size.
func testExamples(t *testing.T, n, size int, seed int64) []dataset.Example {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: (n + 3) / 4, Seed: seed})
	if err != nil {
		t.Fatalf("BuildStudy: %v", err)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ex, err := st.RenderExamples(idx, size)
	if err != nil {
		t.Fatalf("RenderExamples: %v", err)
	}
	return ex
}

// itemsOf turns examples into a request's items.
func itemsOf(ex []dataset.Example) []Item {
	items := make([]Item, len(ex))
	for i := range ex {
		items[i] = Item{ID: ex[i].ID, Image: ex[i].Image}
	}
	return items
}

func testItems(t *testing.T, n, size int) []Item {
	t.Helper()
	return itemsOf(testExamples(t, n, size, 1))
}

func testModel(t *testing.T, id vlm.ModelID) *vlm.Model {
	t.Helper()
	p, err := vlm.ProfileFor(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vlm.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fullOptions() Options {
	inds := scene.Indicators()
	return Options{Indicators: inds[:]}
}

func TestLocalMatchesDirectClassify(t *testing.T) {
	m := testModel(t, vlm.Gemini15Pro)
	b, err := NewVLM(m)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Capabilities().PerceivedFeatures {
		t.Error("vlm adapter should support the perception fast path")
	}
	items := testItems(t, 6, 96)
	res, err := b.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()})
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(res.Answers) != len(items) {
		t.Fatalf("answers = %d vectors", len(res.Answers))
	}
	inds := scene.Indicators()
	for i, it := range items {
		want, err := m.Classify(vlm.Request{Image: it.Image, Indicators: inds[:]})
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if res.Answers[i][k] != want[k] {
				t.Fatalf("item %d indicator %d: adapter %v, direct %v", i, k, res.Answers[i][k], want[k])
			}
		}
	}
}

func TestLocalPerceivedPathMatches(t *testing.T) {
	m := testModel(t, vlm.Claude37)
	b, err := NewVLM(m)
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(t, 4, 96)
	for i := range items {
		feats, err := vlm.Perceive(items[i].Image)
		if err != nil {
			t.Fatal(err)
		}
		items[i].Feats = &feats
	}
	res, err := b.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	inds := scene.Indicators()
	for i, it := range items {
		want, err := m.ClassifyPerceived(vlm.Request{Image: it.Image, Indicators: inds[:]}, *it.Feats)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if res.Answers[i][k] != want[k] {
				t.Fatalf("item %d indicator %d diverges on perceived path", i, k)
			}
		}
	}
}

// plainBackend answers "no" to everything and has no perception fast
// path.
type plainBackend struct{}

func (plainBackend) Name() string               { return "plain" }
func (plainBackend) Capabilities() Capabilities { return Capabilities{} }
func (plainBackend) Classify(_ context.Context, req BatchRequest) (BatchResult, error) {
	out := make([][]bool, len(req.Items))
	for i := range out {
		out[i] = make([]bool, scene.NumIndicators)
	}
	return BatchResult{Answers: out}, nil
}

func TestVotingCapabilitiesWithoutFastPath(t *testing.T) {
	gemini, err := NewVLM(testModel(t, vlm.Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVoting("", gemini, plainBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Capabilities().PerceivedFeatures {
		t.Error("a committee with a member lacking the fast path must not advertise it")
	}
	if b.Name() != "voting" {
		t.Errorf("default name = %q", b.Name())
	}
}

// paperCommitteeSpec declares the paper's top-three committee the way
// the builtin specs and the gateway's default routes do.
func paperCommitteeSpec() Spec {
	s := Spec{Kind: "voting", Name: "committee"}
	for _, id := range ensemble.PaperCommittee() {
		s.Members = append(s.Members, Spec{Kind: "vlm", Model: string(id)})
	}
	return s
}

// TestCommitteeAdapter: the committee spec, opened through the registry,
// answers item for item what ensemble.Vote over each member's direct
// answers gives, on the plain path and on the perceived one.
func TestCommitteeAdapter(t *testing.T) {
	b, err := Open(context.Background(), paperCommitteeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !b.Capabilities().PerceivedFeatures {
		t.Error("committee should support the perception fast path")
	}
	var members []*vlm.Model
	for _, id := range ensemble.PaperCommittee() {
		members = append(members, testModel(t, id))
	}
	inds := scene.Indicators()
	for _, perceived := range []bool{false, true} {
		items := testItems(t, 6, 96)
		if perceived {
			for i := range items {
				feats, err := vlm.Perceive(items[i].Image)
				if err != nil {
					t.Fatal(err)
				}
				items[i].Feats = &feats
			}
		}
		res, err := b.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			req := vlm.Request{Image: it.Image, Indicators: inds[:]}
			votes := make([][]bool, len(members))
			for mi, m := range members {
				if perceived {
					votes[mi], err = m.ClassifyPerceived(req, *it.Feats)
				} else {
					votes[mi], err = m.Classify(req)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			want, err := ensemble.Vote(votes)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Answers[i], want) {
				t.Fatalf("perceived=%v item %d: committee %v, direct vote %v", perceived, i, res.Answers[i], want)
			}
		}
	}
}

func TestYOLOAdapterMatchesDetect(t *testing.T) {
	m, err := yolo.New(yolo.Config{InputSize: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewYOLO(m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps := b.Capabilities()
	if caps.RenderSize != 32 {
		t.Errorf("RenderSize = %d, want the detector's input size 32", caps.RenderSize)
	}
	if caps.MaxConcurrency != 0 {
		t.Errorf("MaxConcurrency = %d, want 0 (stateless inference is unbounded)", caps.MaxConcurrency)
	}
	items := testItems(t, 4, 32)
	res, err := b.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		dets, err := m.DetectBatch([]*render.Image{it.Image}, 0.25, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		var want [scene.NumIndicators]bool
		for _, d := range dets[0] {
			if idx := d.Class.Index(); idx >= 0 {
				want[idx] = true
			}
		}
		for k := 0; k < scene.NumIndicators; k++ {
			if res.Answers[i][k] != want[k] {
				t.Fatalf("item %d indicator %d: adapter %v, direct %v", i, k, res.Answers[i][k], want[k])
			}
		}
	}
}

func TestCNNAdapterMatchesPredict(t *testing.T) {
	m, err := classify.New(classify.Config{InputSize: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCNN(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps := b.Capabilities()
	if caps.RenderSize != 32 || caps.MaxConcurrency != 0 {
		t.Errorf("caps = %+v, want RenderSize 32, MaxConcurrency 0 (unbounded)", caps)
	}
	items := testItems(t, 4, 32)
	res, err := b.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		probs, err := m.Predict(it.Image)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < scene.NumIndicators; k++ {
			if want := probs[k] >= 0.5; res.Answers[i][k] != want {
				t.Fatalf("item %d indicator %d: adapter %v, direct %v", i, k, res.Answers[i][k], want)
			}
		}
	}
}

// stub is a scriptable backend for composite tests.
type stub struct {
	name string
	caps Capabilities
	ans  []bool
	err  error
}

func (s *stub) Name() string               { return s.name }
func (s *stub) Capabilities() Capabilities { return s.caps }
func (s *stub) Classify(_ context.Context, req BatchRequest) (BatchResult, error) {
	if s.err != nil {
		return BatchResult{}, s.err
	}
	out := make([][]bool, len(req.Items))
	for i := range out {
		out[i] = append([]bool(nil), s.ans...)
	}
	return BatchResult{Answers: out}, nil
}

func boolVec(v bool) []bool {
	out := make([]bool, scene.NumIndicators)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestVotingMajority(t *testing.T) {
	yes := &stub{name: "yes", ans: boolVec(true)}
	no := &stub{name: "no", ans: boolVec(false)}
	v, err := NewVoting("", yes, yes, no)
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(t, 3, 96)
	res, err := v.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		for k := 0; k < scene.NumIndicators; k++ {
			if !res.Answers[i][k] {
				t.Fatalf("item %d indicator %d: 2-of-3 yes voted false", i, k)
			}
		}
	}
	// Member errors propagate.
	bad := &stub{name: "bad", err: errors.New("boom")}
	v2, err := NewVoting("", yes, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Classify(context.Background(), BatchRequest{Items: items, Options: fullOptions()}); err == nil {
		t.Error("member error swallowed")
	}
}

func TestVotingCapabilityMerge(t *testing.T) {
	a := &stub{name: "a", caps: Capabilities{PerceivedFeatures: true, PreferredBatch: 8, MaxConcurrency: 4}}
	b := &stub{name: "b", caps: Capabilities{PerceivedFeatures: true, PreferredBatch: 2, MaxConcurrency: 0}}
	c := &stub{name: "c", caps: Capabilities{PerceivedFeatures: false, MaxConcurrency: 2}}
	v, err := NewVoting("panel", a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	caps := v.Capabilities()
	if caps.PerceivedFeatures {
		t.Error("one non-perceiving member must disable the fast path")
	}
	if caps.PreferredBatch != 1 {
		t.Errorf("PreferredBatch = %d, want min 1", caps.PreferredBatch)
	}
	if caps.MaxConcurrency != 2 {
		t.Errorf("MaxConcurrency = %d, want min nonzero 2", caps.MaxConcurrency)
	}
	// Render-size disagreement is rejected.
	d := &stub{name: "d", caps: Capabilities{RenderSize: 64}}
	if _, err := NewVoting("", a, d); err == nil {
		t.Error("mixed render sizes accepted")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewVLM(nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewHTTP(HTTPConfig{}); err == nil {
		t.Error("missing client accepted")
	}
	if _, err := NewYOLO(nil, 0, 0); err == nil {
		t.Error("nil detector accepted")
	}
	m, err := yolo.New(yolo.Config{InputSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewYOLO(m, 1.5, 0); err == nil {
		t.Error("bad score threshold accepted")
	}
	if _, err := NewCNN(nil, 0); err == nil {
		t.Error("nil cnn accepted")
	}
	cm, err := classify.New(classify.Config{InputSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCNN(cm, -0.2); err == nil {
		t.Error("bad threshold accepted")
	}
	if _, err := NewVoting(""); err == nil {
		t.Error("empty voting accepted")
	}
}
