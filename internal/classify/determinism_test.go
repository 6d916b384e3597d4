package classify

import (
	"fmt"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/render"
)

// goldenLosses is the SEED implementation's per-epoch loss curve for the
// configuration below (see the yolo package's determinism test for the
// guarantee this pins down).
var goldenLosses = []string{
	"0.86483149088674394",
	"0.60238251675717802",
	"0.55855147162306951",
	"0.51782822769592862",
}

// goldenProbs is the seed model's presence probabilities on the first
// frame after the run above.
var goldenProbs = []string{
	"0.2663024365901947",
	"0.34135210514068604",
	"0.46807494759559631",
	"0.32183963060379028",
	"0.1160975843667984",
	"0.077276386320590973",
}

func determinismExamples(t *testing.T) []dataset.Example {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 24)
	for i := range idx {
		idx[i] = i
	}
	ex, err := st.RenderExamples(idx, 32)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestTrainingLossCurveUnchangedFromSeed trains the scene CNN on a fixed
// corpus and asserts the loss curve and resulting predictions are
// bit-identical to the seed implementation.
func TestTrainingLossCurveUnchangedFromSeed(t *testing.T) {
	ex := determinismExamples(t)
	m, err := New(Config{InputSize: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	err = m.Train(ex, TrainConfig{
		Epochs:    4,
		BatchSize: 8,
		Seed:      13,
		Progress:  func(_ int, loss float64) { losses = append(losses, loss) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != len(goldenLosses) {
		t.Fatalf("got %d epoch losses, want %d", len(losses), len(goldenLosses))
	}
	for i, l := range losses {
		if got := fmt.Sprintf("%.17g", l); got != goldenLosses[i] {
			t.Errorf("epoch %d loss = %s, seed produced %s", i, got, goldenLosses[i])
		}
	}
	probs, err := m.Predict(ex[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range probs {
		if got := fmt.Sprintf("%.17g", p); got != goldenProbs[k] {
			t.Errorf("prob %d = %s, seed produced %s", k, got, goldenProbs[k])
		}
	}
}

// TestPredictBatchMatchesPredict asserts batched prediction is
// bit-identical to the per-image path.
func TestPredictBatchMatchesPredict(t *testing.T) {
	ex := determinismExamples(t)
	m, err := New(Config{InputSize: 32, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ex[:16], TrainConfig{Epochs: 2, BatchSize: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	imgs := make([]*render.Image, 8)
	for i := range imgs {
		imgs[i] = ex[i].Image
	}
	batched, err := m.PredictBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		single, err := m.Predict(img)
		if err != nil {
			t.Fatal(err)
		}
		for k := range single {
			if single[k] != batched[i][k] {
				t.Fatalf("image %d indicator %d: batched %g vs single %g", i, k, batched[i][k], single[k])
			}
		}
	}
}
