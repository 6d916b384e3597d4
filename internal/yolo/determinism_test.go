package yolo

import (
	"fmt"
	"testing"

	"nbhd/internal/render"
)

// goldenLosses is the per-epoch training loss curve of the SEED
// implementation (per-sample im2col, serial reference GEMMs, no pooling)
// for the exact configuration below, captured before the batched compute
// layer landed. The rebuilt hot path must reproduce it to all printed
// digits: training is deterministic and bit-identical to the seed.
var goldenLosses = []string{
	"0.65358534614312391",
	"0.44936505858785036",
	"0.40803397699231897",
	"0.38290420241085815",
}

// goldenTopDetection is the seed implementation's highest-scoring
// detection on the first training frame after the run above.
const goldenTopDetection = "apartment 0.17879120544478155 [0.055091970435728665 0.51499302698472427 0.22534308505857981 0.83352358626028611]"

// TestTrainingLossCurveUnchangedFromSeed trains a small detector on a
// fixed corpus and asserts the loss curve — and the resulting model's
// top detection — are bit-identical to the seed implementation. This is
// the end-to-end determinism guarantee behind every Table/Figure
// benchmark: faster kernels, same numbers.
func TestTrainingLossCurveUnchangedFromSeed(t *testing.T) {
	ex := tinyExamples(t, 24, 32)
	m, err := New(Config{InputSize: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	err = m.Train(ex, TrainConfig{
		Epochs:    4,
		BatchSize: 8,
		Seed:      11,
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
	dets, err := detectOne(m, ex[0].Image, 0.05, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detections from trained model")
	}
	top := fmt.Sprintf("%s %.17g [%.17g %.17g %.17g %.17g]",
		dets[0].Class, dets[0].Score, dets[0].BBox.X0, dets[0].BBox.Y0, dets[0].BBox.X1, dets[0].BBox.Y1)
	if top != goldenTopDetection {
		t.Errorf("top detection = %s, seed produced %s", top, goldenTopDetection)
	}
}

// TestDetectBatchMatchesDetect asserts batched detection is
// bit-identical to the per-frame path, including NMS ordering.
func TestDetectBatchMatchesDetect(t *testing.T) {
	ex := tinyExamples(t, 8, 32)
	m, err := New(Config{InputSize: 32, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ex, TrainConfig{Epochs: 2, BatchSize: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	imgs := make([]*render.Image, len(ex))
	for i := range ex {
		imgs[i] = ex[i].Image
	}
	batched, err := m.DetectBatch(imgs, 0.05, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		single, err := detectOne(m, img, 0.05, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batched[i]) {
			t.Fatalf("frame %d: %d batched detections, %d single", i, len(batched[i]), len(single))
		}
		for k := range single {
			b := batched[i][k]
			s := single[k]
			if b.Class != s.Class || b.Score != s.Score || b.BBox != s.BBox {
				t.Fatalf("frame %d det %d: batched %+v vs single %+v", i, k, b, s)
			}
		}
	}
}
