package core

import (
	"context"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/prompt"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

func smallPipeline(t *testing.T, coords int) *Pipeline {
	t.Helper()
	p, err := NewPipeline(Config{Coordinates: coords, Seed: 5, DetectorInputSize: 32, LLMRenderSize: 96})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	return p
}

func TestNewPipelineBuildsAnnotations(t *testing.T) {
	p := smallPipeline(t, 6)
	if p.Study.Len() != 24 {
		t.Fatalf("frames = %d", p.Study.Len())
	}
}

func TestTrainBaselineSmoke(t *testing.T) {
	p := smallPipeline(t, 20)
	var epochs int
	res, err := p.TrainBaseline(BaselineOptions{
		Epochs:    4,
		BatchSize: 16,
		Progress:  func(int, float64) { epochs++ },
	})
	if err != nil {
		t.Fatalf("TrainBaseline: %v", err)
	}
	if epochs != 4 {
		t.Errorf("progress calls = %d", epochs)
	}
	if res.Model == nil || res.Report == nil {
		t.Fatal("nil result fields")
	}
	if res.MAP50 < 0 || res.MAP50 > 1 {
		t.Errorf("mAP50 = %f", res.MAP50)
	}
}

func TestTrainBaselineWithAugmentAndNoise(t *testing.T) {
	p := smallPipeline(t, 10)
	res, err := p.TrainBaseline(BaselineOptions{
		Epochs:     2,
		BatchSize:  16,
		Augment:    dataset.FlippingOps(),
		NoiseSNRdB: 20,
	})
	if err != nil {
		t.Fatalf("TrainBaseline: %v", err)
	}
	if res.Report == nil {
		t.Fatal("nil report")
	}
}

func TestEvaluateBackend(t *testing.T) {
	p := smallPipeline(t, 10)
	ev := p.NewEvaluator(EvalConfig{})
	b := testVLM(t, vlm.Gemini15Pro)
	report, err := ev.EvaluateBackend(context.Background(), b, LLMOptions{})
	if err != nil {
		t.Fatalf("EvaluateBackend: %v", err)
	}
	total := 0
	for _, ind := range scene.Indicators() {
		total += report.Of(ind).Total()
	}
	if total != p.Study.Len()*scene.NumIndicators {
		t.Errorf("report covers %d pairs, want %d", total, p.Study.Len()*scene.NumIndicators)
	}
	// FrameLimit caps coverage.
	limited, err := ev.EvaluateBackend(context.Background(), b, LLMOptions{FrameLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := limited.Of(scene.Sidewalk).Total(); got != 8 {
		t.Errorf("limited report = %d pairs/class, want 8", got)
	}
}

func TestEvaluateBackendSetAndVoting(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model sweep in -short mode")
	}
	p := smallPipeline(t, 30)
	ev := p.NewEvaluator(EvalConfig{})
	reports, err := ev.EvaluateBackendSet(context.Background(), modelBackends(t), LLMOptions{})
	if err != nil {
		t.Fatalf("EvaluateBackendSet: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	ids, voted := voteTopThree(t, ev, reports, LLMOptions{})
	if len(ids) != 3 {
		t.Fatalf("committee = %v", ids)
	}
	// Voting accuracy should be at least competitive with the best
	// member (exact dominance is asserted at larger scale in the
	// ensemble package tests).
	_, _, _, votedAcc := voted.Averages()
	if votedAcc < 0.7 {
		t.Errorf("voting accuracy %.3f implausibly low", votedAcc)
	}
}

func TestEvaluateBackendLanguagesAndModes(t *testing.T) {
	p := smallPipeline(t, 8)
	ev := p.NewEvaluator(EvalConfig{})
	b := testVLM(t, vlm.Gemini15Pro)
	for _, opts := range []LLMOptions{
		{Language: prompt.Spanish},
		{Mode: prompt.Sequential},
		{Temperature: 1.5},
		{TopP: 0.5},
	} {
		if _, err := ev.EvaluateBackend(context.Background(), b, opts); err != nil {
			t.Errorf("EvaluateBackend(%+v): %v", opts, err)
		}
	}
}

func TestAnalyzeNeighborhood(t *testing.T) {
	p := smallPipeline(t, 16)
	_, analyzed, _, err := p.NewEvaluator(EvalConfig{}).Walk(context.Background(), nil, []AnalysisJob{{Backend: testCommittee(t), TractFeet: 2000}})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	res := analyzed[0]
	if len(res.Locations) != 16 {
		t.Errorf("locations = %d, want 16", len(res.Locations))
	}
	if len(res.Tracts) == 0 || len(res.Scores) != len(res.Tracts) {
		t.Errorf("tracts = %d scores = %d", len(res.Tracts), len(res.Scores))
	}
	if len(res.Associations) != scene.NumIndicators {
		t.Errorf("associations = %d", len(res.Associations))
	}
	// Locations per tract sum to total.
	sum := 0
	for _, tr := range res.Tracts {
		sum += tr.Locations
	}
	if sum != len(res.Locations) {
		t.Errorf("tract locations sum = %d", sum)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Coordinates != dataset.StudyCoordinates {
		t.Errorf("default coordinates = %d", cfg.Coordinates)
	}
	if cfg.DetectorInputSize != 64 || cfg.LLMRenderSize != 96 {
		t.Errorf("default sizes = %d/%d", cfg.DetectorInputSize, cfg.LLMRenderSize)
	}
}
