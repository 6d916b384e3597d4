package yolo

import (
	"bytes"
	"testing"

	"nbhd/internal/backbone"
	"nbhd/internal/dataset"
	"nbhd/internal/metrics"
	"nbhd/internal/render"
	"nbhd/internal/scene"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{InputSize: 15}); err == nil {
		t.Error("non-multiple-of-8 input accepted")
	}
	if _, err := New(Config{InputSize: 8}); err == nil {
		t.Error("too-small input accepted")
	}
	if _, err := New(Config{InputSize: 32, Channels: [3]int{4, 0, 8}}); err == nil {
		t.Error("zero channel stage accepted")
	}
}

func TestModelDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.InputSize() != 64 {
		t.Errorf("InputSize = %d", m.InputSize())
	}
	// Three 3×3 conv stages 3→8→16→32, the 3×3 32→32 refinement, then
	// the 1×1 head to CellOutputs per cell.
	want := (3*9*8 + 8) + (8*9*16 + 16) + (16*9*32 + 32) + (32*9*32 + 32) + (32*CellOutputs + CellOutputs)
	got := 0
	_, params := backbone.Weights(m.Net)
	for _, p := range params {
		got += len(p.Value.Data)
	}
	if got != want {
		t.Errorf("%d trainable scalars, want %d", got, want)
	}
}

func TestModelDeterministicInit(t *testing.T) {
	a, err := New(Config{InputSize: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{InputSize: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, pa := backbone.Weights(a.Net)
	_, pb := backbone.Weights(b.Net)
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func tinyExamples(t *testing.T, n, size int) []dataset.Example {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: (n + 3) / 4, Seed: 21})
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

// detectOne runs DetectBatch on a batch of one image.
func detectOne(m *Model, img *render.Image, scoreThresh, nmsIoU float64) ([]Detection, error) {
	res, err := m.DetectBatch([]*render.Image{img}, scoreThresh, nmsIoU)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestDetectValidation(t *testing.T) {
	m, err := New(Config{InputSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ex := tinyExamples(t, 1, 16) // wrong size
	if _, err := detectOne(m, ex[0].Image, 0.5, 0.5); err == nil {
		t.Error("wrong image size accepted")
	}
	ex32 := tinyExamples(t, 1, 32)
	if _, err := detectOne(m, ex32[0].Image, -0.1, 0.5); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestDetectUntrainedRuns(t *testing.T) {
	m, err := New(Config{InputSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := tinyExamples(t, 1, 32)
	dets, err := detectOne(m, ex[0].Image, 0.0, 0.5)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	for _, d := range dets {
		if d.Score < 0 || d.Score > 1 {
			t.Errorf("score %f outside [0,1]", d.Score)
		}
		if !d.BBox.Valid() {
			t.Errorf("invalid detection box %+v", d.BBox)
		}
	}
}

func TestTrainConfigValidation(t *testing.T) {
	m, err := New(Config{InputSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ex := tinyExamples(t, 4, 32)
	if err := m.Train(ex, TrainConfig{Epochs: -1}); err == nil {
		t.Error("negative epochs accepted")
	}
	if err := m.Train(ex, TrainConfig{BatchSize: -1}); err == nil {
		t.Error("negative batch size accepted")
	}
	if err := m.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestTrainLossDecreases(t *testing.T) {
	m, err := New(Config{InputSize: 32, Channels: [3]int{4, 8, 16}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := tinyExamples(t, 16, 32)
	var losses []float64
	cfg := TrainConfig{
		Epochs:    8,
		BatchSize: 8,
		Seed:      3,
		Progress:  func(_ int, loss float64) { losses = append(losses, loss) },
	}
	if err := m.Train(ex, cfg); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(losses) != 8 {
		t.Fatalf("progress calls = %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %f -> %f", losses[0], losses[len(losses)-1])
	}
}

func TestTrainThenDetectFindsObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, err := New(Config{InputSize: 32, Channels: [3]int{6, 12, 24}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex := tinyExamples(t, 48, 32)
	if err := m.Train(ex, TrainConfig{Epochs: 25, BatchSize: 16, Seed: 5}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	evals, err := m.Evaluate(ex, 0.3, 0.45)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	ap, err := metrics.APPerClass(evals, metrics.IoU50)
	if err != nil {
		t.Fatalf("APPerClass: %v", err)
	}
	// On its own training data the detector must beat chance decisively
	// for the dominant road classes.
	roads := (ap[scene.SingleLaneRoad].AP + ap[scene.MultilaneRoad].AP) / 2
	if roads < 0.3 {
		t.Errorf("train-set road AP = %f, model failed to learn", roads)
	}
}

func TestEncodeTargetsAssignsCenterCell(t *testing.T) {
	m, err := New(Config{InputSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ex := dataset.Example{
		ID: "enc",
		Objects: []scene.Object{
			{Indicator: scene.Powerline, BBox: scene.Rect{X0: 0.0, Y0: 0.0, X1: 1.0, Y1: 0.4}},
		},
	}
	tg := m.encodeTargets([]dataset.Example{ex})
	g := m.InputSize() / 8
	// Center (0.5, 0.2) falls in cell (g/2, g*0.2).
	gx, gy := g/2, int(0.2*float64(g))
	if got := tg.obj.At(0, 0, gy, gx); got != 1 {
		t.Errorf("objectness at center cell = %f", got)
	}
	if got := tg.cls.At(0, scene.Powerline.Index(), gy, gx); got != 1 {
		t.Errorf("class one-hot = %f", got)
	}
	// Box width target is the normalized width.
	if got := tg.box.At(0, 2, gy, gx); got != 1.0 {
		t.Errorf("width target = %f", got)
	}
	// A cell with no object keeps the no-object weight.
	if got := tg.objMask.At(0, 0, 0, 0); got != 0.5 {
		t.Errorf("no-object weight = %f", got)
	}
}

func TestEncodeTargetsLargerBoxWinsCell(t *testing.T) {
	m, err := New(Config{InputSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	small := scene.Object{Indicator: scene.Streetlight, BBox: scene.Rect{X0: 0.45, Y0: 0.45, X1: 0.55, Y1: 0.55}}
	big := scene.Object{Indicator: scene.MultilaneRoad, BBox: scene.Rect{X0: 0.2, Y0: 0.3, X1: 0.8, Y1: 0.7}}
	for _, order := range [][]scene.Object{{small, big}, {big, small}} {
		tg := m.encodeTargets([]dataset.Example{{ID: "x", Objects: order}})
		g := m.InputSize() / 8
		gx, gy := g/2, g/2
		if got := tg.cls.At(0, scene.MultilaneRoad.Index(), gy, gx); got != 1 {
			t.Errorf("larger box should own the contested cell (order %v)", order[0].Indicator)
		}
		if got := tg.cls.At(0, scene.Streetlight.Index(), gy, gx); got != 0 {
			t.Errorf("loser class should be zeroed (order %v)", order[0].Indicator)
		}
	}
}

func TestNonMaxSuppress(t *testing.T) {
	b1 := scene.Rect{X0: 0.1, Y0: 0.1, X1: 0.5, Y1: 0.5}
	b2 := scene.Rect{X0: 0.12, Y0: 0.1, X1: 0.52, Y1: 0.5} // heavy overlap with b1
	b3 := scene.Rect{X0: 0.6, Y0: 0.6, X1: 0.9, Y1: 0.9}   // disjoint
	dets := []Detection{
		{Class: scene.Sidewalk, BBox: b2, Score: 0.7},
		{Class: scene.Sidewalk, BBox: b1, Score: 0.9},
		{Class: scene.Sidewalk, BBox: b3, Score: 0.5},
		{Class: scene.Powerline, BBox: b2, Score: 0.6}, // different class survives
	}
	kept := nonMaxSuppress(dets, 0.5)
	if len(kept) != 3 {
		t.Fatalf("kept %d detections, want 3", len(kept))
	}
	if kept[0].Score != 0.9 {
		t.Errorf("highest score first, got %f", kept[0].Score)
	}
	for _, d := range kept {
		if d.Class == scene.Sidewalk && d.Score == 0.7 {
			t.Error("overlapping lower-score detection survived NMS")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := New(Config{InputSize: 32, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatalf("SaveParams: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Identical weights -> identical detections.
	ex := tinyExamples(t, 1, 32)
	d1, err := detectOne(m, ex[0].Image, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := detectOne(back, ex[0].Image, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("detection counts differ after reload: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("detections differ after reload")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEvaluateShape(t *testing.T) {
	m, err := New(Config{InputSize: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ex := tinyExamples(t, 3, 32)
	evals, err := m.Evaluate(ex, 0.5, 0.45)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(evals) != 3 {
		t.Fatalf("evals = %d", len(evals))
	}
	for i, ev := range evals {
		if ev.ImageID != ex[i].ID {
			t.Errorf("eval %d id %q, want %q", i, ev.ImageID, ex[i].ID)
		}
		if len(ev.Truth) != len(ex[i].Objects) {
			t.Errorf("eval %d lost ground truth", i)
		}
	}
}
