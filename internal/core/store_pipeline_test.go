package core

import (
	"context"
	"testing"

	"nbhd/internal/geo"
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
	model, err := vlm.NewModel(vlm.BuiltinProfiles()[vlm.ChatGPT4oMini])
	if err != nil {
		t.Fatal(err)
	}

	cold := storePipeline(t, 6, dir)
	coldRep, err := cold.NewEvaluator(EvalConfig{}).EvaluateBackend(context.Background(), wrap(t, model), LLMOptions{})
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
	warmRep, err := warm.NewEvaluator(EvalConfig{}).EvaluateBackend(context.Background(), wrap(t, model), LLMOptions{})
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

// TestFrameIndexMatchesStudy checks the lazy spatial index covers every
// frame and answers nearest-self exactly.
func TestFrameIndexMatchesStudy(t *testing.T) {
	p := smallPipeline(t, 8)
	ix := p.FrameIndex()
	if ix.Len() != p.Study.Len() {
		t.Fatalf("index Len = %d, want %d", ix.Len(), p.Study.Len())
	}
	for i, fr := range p.Study.Frames {
		res, ok := ix.Nearest(fr.Scene.Point.Coordinate)
		if !ok {
			t.Fatalf("Nearest(frame %d) found nothing", i)
		}
		if res.DistanceFeet != 0 {
			t.Fatalf("Nearest(frame %d) distance = %v, want 0", i, res.DistanceFeet)
		}
	}
	if again := p.FrameIndex(); again != ix {
		t.Fatal("FrameIndex rebuilt on second call")
	}
}

// TestNeighborhoodAtSubsetsCorpus runs the index-selected analysis
// around one corpus coordinate and checks it covers exactly the groups
// a linear distance scan selects.
func TestNeighborhoodAtSubsetsCorpus(t *testing.T) {
	p := smallPipeline(t, 16)
	b := wrap(t, testCommittee(t))
	center := p.Study.Frames[0].Scene.Point.Coordinate
	const radius = 30000.0
	res, err := p.NewEvaluator(EvalConfig{}).NeighborhoodAt(context.Background(), b, center, radius, 2000)
	if err != nil {
		t.Fatalf("NeighborhoodAt: %v", err)
	}
	// Reference: linear scan over coordinate groups.
	want := 0
	for g := 0; g < p.Study.Len()/FramesPerCoordinate; g++ {
		c := p.Study.Frames[g*FramesPerCoordinate].Scene.Point.Coordinate
		if center.DistanceFeet(c) <= radius {
			want++
		}
	}
	if want == 0 {
		t.Fatal("test radius selects nothing; widen it")
	}
	if len(res.Locations) != want {
		t.Fatalf("NeighborhoodAt locations = %d, linear scan says %d", len(res.Locations), want)
	}
	if len(res.Tracts) == 0 || len(res.Scores) != len(res.Tracts) {
		t.Fatalf("tracts = %d scores = %d", len(res.Tracts), len(res.Scores))
	}
	// Each selected location really is within the radius.
	for _, loc := range res.Locations {
		if d := center.DistanceFeet(loc.Coordinate); d > radius {
			t.Fatalf("location at %.1f ft exceeds radius %.0f", d, radius)
		}
	}
}

// TestNeighborhoodAtEmptySelection must fail loudly, not analyze an
// empty tract set.
func TestNeighborhoodAtEmptySelection(t *testing.T) {
	p := smallPipeline(t, 4)
	b := wrap(t, testCommittee(t))
	far := geo.Coordinate{Lat: -45, Lng: 170}
	if _, err := p.NewEvaluator(EvalConfig{}).NeighborhoodAt(context.Background(), b, far, 10, 2000); err == nil {
		t.Fatal("NeighborhoodAt with empty selection succeeded")
	}
}
