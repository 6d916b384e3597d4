package classify

import (
	"testing"

	"nbhd/internal/backbone"
	"nbhd/internal/dataset"
	"nbhd/internal/scene"
)

func examples(t *testing.T, n, size int) []dataset.Example {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: (n + 3) / 4, Seed: 13})
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

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{InputSize: 20}); err == nil {
		t.Error("non-multiple-of-8 size accepted")
	}
	if _, err := New(Config{InputSize: 8}); err == nil {
		t.Error("tiny size accepted")
	}
	if _, err := New(Config{InputSize: 32, Channels: [3]int{0, 8, 8}}); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.InputSize() != 64 {
		t.Errorf("InputSize = %d", m.InputSize())
	}
	// Three 3×3 conv stages 3→8→16→32, then a linear head from the
	// 32×8×8 grid to the six indicators.
	want := (3*9*8 + 8) + (8*9*16 + 16) + (16*9*32 + 32) + (32*8*8*6 + 6)
	got := 0
	_, params := backbone.Weights(m.Net)
	for _, p := range params {
		got += len(p.Value.Data)
	}
	if got != want {
		t.Errorf("%d trainable scalars, want %d", got, want)
	}
}

func TestPredictShape(t *testing.T) {
	m, err := New(Config{InputSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := examples(t, 1, 32)
	probs, err := m.Predict(ex[0].Image)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	for k, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("prob[%d] = %f outside [0,1]", k, p)
		}
	}
	// Wrong size rejected.
	bad := examples(t, 1, 16)
	if _, err := m.Predict(bad[0].Image); err == nil {
		t.Error("wrong-size image accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	m, err := New(Config{InputSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	ex := examples(t, 4, 32)
	if err := m.Train(ex, TrainConfig{Epochs: -1}); err == nil {
		t.Error("negative epochs accepted")
	}
}

func TestTrainLossDecreases(t *testing.T) {
	m, err := New(Config{InputSize: 32, Channels: [3]int{4, 8, 16}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := examples(t, 24, 32)
	var losses []float64
	err = m.Train(ex, TrainConfig{
		Epochs:    8,
		BatchSize: 8,
		Seed:      3,
		Progress:  func(_ int, l float64) { losses = append(losses, l) },
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %f -> %f", losses[0], losses[len(losses)-1])
	}
}

func TestTrainThenEvaluateBeatsChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, err := New(Config{InputSize: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex := examples(t, 80, 32)
	if err := m.Train(ex, TrainConfig{Epochs: 15, BatchSize: 16, Seed: 5}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	report, err := m.Evaluate(ex, 0.5)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	_, _, _, acc := report.Averages()
	if acc < 0.8 {
		t.Errorf("train-set accuracy %.3f, classifier failed to learn", acc)
	}
}

func TestEvaluateValidation(t *testing.T) {
	m, err := New(Config{InputSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ex := examples(t, 2, 32)
	if _, err := m.Evaluate(ex, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := m.Evaluate(ex, 1); err == nil {
		t.Error("unit threshold accepted")
	}
	rep, err := m.Evaluate(ex, 0.5)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rep.Of(scene.Sidewalk).Total() != len(ex) {
		t.Error("report does not cover all examples")
	}
}
