package core

import (
	"context"
	"testing"

	"nbhd/internal/vlm"
)

// storePipeline builds a pipeline over a persistent frame store.
func storePipeline(t *testing.T, coords int, dir string) *Pipeline {
	t.Helper()
	p, err := NewPipeline(Config{Coordinates: coords, Seed: 5, DetectorInputSize: 32, LLMRenderSize: 64, StoreDir: dir})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	return p
}

// TestPipelineWarmStartZeroRenders is the acceptance criterion for the
// persistent tier at the pipeline level: a second pipeline over the
// same StoreDir classifies the full corpus without a single render.
func TestPipelineWarmStartZeroRenders(t *testing.T) {
	dir := t.TempDir()
	model := testVLM(t, vlm.ChatGPT4oMini)

	cold := storePipeline(t, 6, dir)
	coldRep, err := cold.NewEvaluator(EvalConfig{}).EvaluateBackend(context.Background(), model, LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.RenderCache().Renders(); got != int64(cold.Study.Len()) {
		t.Fatalf("cold Renders = %d, want %d", got, cold.Study.Len())
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := storePipeline(t, 6, dir)
	defer warm.Close()
	warmRep, err := warm.NewEvaluator(EvalConfig{}).EvaluateBackend(context.Background(), model, LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.RenderCache().Renders(); got != 0 {
		t.Fatalf("warm Renders = %d, want 0 (store must serve every frame)", got)
	}
	if got := warm.RenderCache().StoreHits(); got != int64(warm.Study.Len()) {
		t.Fatalf("warm StoreHits = %d, want %d", got, warm.Study.Len())
	}
	// Store-served frames are bit-identical to fresh renders, so the
	// classification reports must agree exactly.
	cp, cr, cf, ca := coldRep.Averages()
	wp, wr, wf, wa := warmRep.Averages()
	if cp != wp || cr != wr || cf != wf || ca != wa {
		t.Fatalf("warm report differs from cold: P/R/F1/acc %v/%v/%v/%v vs %v/%v/%v/%v",
			wp, wr, wf, wa, cp, cr, cf, ca)
	}
}
