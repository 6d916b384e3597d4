package backend

import (
	"context"
	"testing"

	"nbhd/internal/classify"
	"nbhd/internal/metrics"
	"nbhd/internal/scene"
	"nbhd/internal/yolo"
)

// TestSupervisedAdapterContract drives the adapter both supervised kinds
// share through the paths the engine and the gateway rely on: an empty
// batch and a cancelled context run no model, an indicator subset in a
// non-canonical order answers in that order, and the int8 switch shows
// in Capabilities and in ComputeStats.
func TestSupervisedAdapterContract(t *testing.T) {
	kinds := []struct {
		name string
		open func(t *testing.T) (Backend, func(bool) error)
	}{
		{"cnn", func(t *testing.T) (Backend, func(bool) error) {
			m, err := classify.New(classify.Config{InputSize: 32, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewCNN(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			return b, m.SetQuantized
		}},
		{"yolo", func(t *testing.T) (Backend, func(bool) error) {
			m, err := yolo.New(yolo.Config{InputSize: 32, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			// At seed 3 the untrained detector's answers at the
			// paper's thresholds differ between the subset's two
			// indicators on some frame.
			b, err := NewYOLO(m, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return b, m.SetQuantized
		}},
	}
	items := testItems(t, 8, 32)
	ctx := context.Background()
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			b, setQuantized := kind.open(t)
			stats := func() ComputeStats {
				s, ok := StatsOf(b)
				if !ok {
					t.Fatal("adapter exposes no compute stats")
				}
				return s
			}

			res, err := b.Classify(ctx, BatchRequest{Options: fullOptions()})
			if err != nil || res.Answers == nil || len(res.Answers) != 0 {
				t.Fatalf("empty batch: answers %v, err %v; want empty, nil", res.Answers, err)
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := b.Classify(cancelled, BatchRequest{Items: items, Options: fullOptions()}); err != cancelled.Err() {
				t.Fatalf("cancelled context: err %v, want %v", err, cancelled.Err())
			}
			if s := stats(); s != (ComputeStats{}) {
				t.Fatalf("empty batch or cancelled context ran the model: %+v", s)
			}

			full, err := b.Classify(ctx, BatchRequest{Items: items, Options: fullOptions()})
			if err != nil {
				t.Fatal(err)
			}
			subset := []scene.Indicator{scene.Powerline, scene.Sidewalk}
			part, err := b.Classify(ctx, BatchRequest{Items: items, Options: Options{Indicators: subset}})
			if err != nil {
				t.Fatal(err)
			}
			tellsApart := false
			for i := range items {
				if len(part.Answers[i]) != len(subset) {
					t.Fatalf("item %d: %d answers, want %d", i, len(part.Answers[i]), len(subset))
				}
				for k, ind := range subset {
					if got, want := part.Answers[i][k], full.Answers[i][ind.Index()]; got != want {
						t.Errorf("item %d %v: subset answer %v, full answer %v", i, ind, got, want)
					}
				}
				tellsApart = tellsApart || part.Answers[i][0] != part.Answers[i][1]
			}
			if !tellsApart {
				t.Fatal("no frame answers the two indicators differently, so the order goes unchecked")
			}

			if b.Capabilities().Quantized {
				t.Fatal("Capabilities().Quantized before SetQuantized")
			}
			if err := setQuantized(true); err != nil {
				t.Fatal(err)
			}
			if !b.Capabilities().Quantized {
				t.Error("Capabilities().Quantized not set after SetQuantized(true)")
			}
			before := stats()
			if _, err := b.Classify(ctx, BatchRequest{Items: items, Options: fullOptions()}); err != nil {
				t.Fatal(err)
			}
			if got, want := stats(), (ComputeStats{F32Infers: before.F32Infers, QuantizedInfers: before.QuantizedInfers + 1}); got != want {
				t.Errorf("one int8 Classify: stats %+v, want %+v", got, want)
			}
		})
	}
}

// TestTrainedCNNBeatsChance: a scene CNN trained on a small corpus and
// asked through its adapter has learned its training frames' presence.
func TestTrainedCNNBeatsChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, err := classify.New(classify.Config{InputSize: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex := testExamples(t, 80, 32, 13)
	if err := m.Train(ex, classify.TrainConfig{Epochs: 15, BatchSize: 16, Seed: 5}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	b, err := NewCNN(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Classify(context.Background(), BatchRequest{Items: itemsOf(ex), Options: fullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var report metrics.ClassReport
	for i, ans := range res.Answers {
		var pred [scene.NumIndicators]bool
		copy(pred[:], ans)
		report.AddVector(pred, ex[i].Presence())
	}
	if _, _, _, acc := report.Averages(); acc < 0.8 {
		t.Errorf("train-set accuracy %.3f, classifier failed to learn", acc)
	}
}
