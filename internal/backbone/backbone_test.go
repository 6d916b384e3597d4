package backbone_test

import (
	"errors"
	"testing"

	"nbhd/internal/classify"
	"nbhd/internal/dataset"
	"nbhd/internal/nn"
	"nbhd/internal/yolo"
)

// TestTrainStopAbortsAtEpochBoundary runs both baselines through the
// shared training loop with a Stop that fails as epoch k+1 opens: the
// run must end with an error wrapping Stop's, after Progress saw exactly
// k epochs.
func TestTrainStopAbortsAtEpochBoundary(t *testing.T) {
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := st.RenderExamples([]int{0, 1, 2, 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name  string
		train func([]dataset.Example, nn.TrainConfig) error
	}{
		{"classify", func(ex []dataset.Example, cfg nn.TrainConfig) error {
			m, err := classify.New(classify.Config{InputSize: 16, Seed: 1})
			if err != nil {
				return err
			}
			return m.Train(ex, cfg)
		}},
		{"yolo", func(ex []dataset.Example, cfg nn.TrainConfig) error {
			m, err := yolo.New(yolo.Config{InputSize: 16, Seed: 1})
			if err != nil {
				return err
			}
			return m.Train(ex, cfg)
		}},
	}
	errStop := errors.New("stop requested")
	const epochs = 3
	for _, m := range models {
		for k := 0; k <= epochs; k++ {
			polls, seen := 0, 0
			err := m.train(ex, nn.TrainConfig{
				Epochs:    epochs,
				BatchSize: 2,
				Stop: func() error {
					if polls++; polls > k {
						return errStop
					}
					return nil
				},
				Progress: func(int, float64) { seen++ },
			})
			switch {
			case k == epochs && err != nil:
				t.Errorf("%s: Stop never failed, Train returned %v", m.name, err)
			case k < epochs && !errors.Is(err, errStop):
				t.Errorf("%s: Stop failed after epoch %d, Train returned %v", m.name, k, err)
			}
			if seen != k {
				t.Errorf("%s: Stop failed after epoch %d, Progress saw %d epochs", m.name, k, seen)
			}
		}
	}
}
