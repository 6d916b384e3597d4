// Black-box tests for the robustness suite: the builtin matrix specs,
// the spec-level morphology/condition axes, the matrix driver's
// determinism (asserted via DiffRuns over saved artifacts), and the
// accuracy envelope every (backend, condition) cell must clear.
package experiment_test

import (
	"context"
	"strings"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/experiment"
	"nbhd/internal/world"
)

func TestRobustnessBuiltinsRegistered(t *testing.T) {
	names := experiment.BuiltinNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	if !have["robustness"] {
		t.Fatalf("BuiltinNames() = %v, missing robustness", names)
	}
	for _, fam := range world.Names() {
		if !have["robustness:"+fam] {
			t.Errorf("BuiltinNames() missing robustness:%s", fam)
		}
	}

	spec, err := experiment.Builtin("robustness:coastal", experiment.BuiltinConfig{Coordinates: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dataset.Morphology != "coastal" {
		t.Errorf("robustness:coastal Dataset.Morphology = %q", spec.Dataset.Morphology)
	}
	if spec.Dataset.Condition != "" {
		t.Errorf("robustness corpus should stay clean (train-clean), got condition %q", spec.Dataset.Condition)
	}
	if len(spec.Sweeps) != len(dataset.Conditions()) {
		t.Errorf("robustness sweeps = %d, want one per condition (%d)", len(spec.Sweeps), len(dataset.Conditions()))
	}
	for i, cond := range dataset.Conditions() {
		sw := spec.Sweeps[i]
		if sw.Name != experiment.RobustnessSweepName(cond) {
			t.Errorf("sweep %d named %q, want %q", i, sw.Name, experiment.RobustnessSweepName(cond))
		}
		if sw.Options.Condition != cond {
			t.Errorf("sweep %q evaluates condition %q", sw.Name, sw.Options.Condition)
		}
		if len(sw.Backends) != len(experiment.RobustnessKinds()) {
			t.Errorf("sweep %q sweeps %d backends, want %d", sw.Name, len(sw.Backends), len(experiment.RobustnessKinds()))
		}
	}
}

func TestRobustnessMatrixKindRestriction(t *testing.T) {
	// Kinds listed out of canonical order still produce canonical sweeps,
	// so the same selection always yields byte-identical specs.
	spec, err := experiment.Builtin("robustness", experiment.BuiltinConfig{
		Coordinates: 2, Seed: 1,
		MatrixKinds:      []string{"cnn", "vlm"},
		MatrixConditions: []string{"night"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(spec.Sweeps))
	}
	got := spec.Sweeps[0].Backends
	if len(got) != 2 || got[0] != "vlm" || got[1] != "cnn" {
		t.Errorf("restricted kinds = %v, want canonical [vlm cnn]", got)
	}
}

func TestRobustnessRejectsUnknownMatrixAxes(t *testing.T) {
	_, err := experiment.Builtin("robustness", experiment.BuiltinConfig{
		Coordinates: 2, Seed: 1, MatrixKinds: []string{"resnet"},
	})
	if err == nil {
		t.Fatal("Builtin accepted an unknown matrix kind")
	}
	if !strings.Contains(err.Error(), "resnet") || !strings.Contains(err.Error(), "vlm") {
		t.Errorf("error should name the bad kind and list valid ones: %v", err)
	}

	_, err = experiment.Builtin("robustness", experiment.BuiltinConfig{
		Coordinates: 2, Seed: 1, MatrixConditions: []string{"fog"},
	})
	if err == nil {
		t.Fatal("Builtin accepted an unknown matrix condition")
	}
	if !strings.Contains(err.Error(), "fog") {
		t.Errorf("error should name the bad condition: %v", err)
	}
}

func TestSpecValidateRejectsUnknownWorldAxes(t *testing.T) {
	base := demoSpec()

	spec := base
	spec.Dataset.Morphology = "suburbia"
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "suburbia") {
		t.Errorf("Validate on unknown morphology: %v", err)
	}

	spec = base
	spec.Dataset.Condition = "fog"
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "fog") {
		t.Errorf("Validate on unknown dataset condition: %v", err)
	}

	spec = base
	sweeps := append([]experiment.SweepSpec(nil), base.Sweeps...)
	sweeps[0].Options.Condition = "fog"
	spec.Sweeps = sweeps
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "fog") {
		t.Errorf("Validate on unknown sweep condition: %v", err)
	}

	// The same rejections must hold for parsed JSON specs.
	_, err := experiment.ParseSpec([]byte(`{"name":"x","dataset":{"seed":1,"morphology":"suburbia"},"backends":{"g":{"kind":"vlm","model":"gemini-1.5-pro"}},"sweeps":[{"name":"s","backends":["g"]}]}`))
	if err == nil || !strings.Contains(err.Error(), "suburbia") {
		t.Errorf("ParseSpec on unknown morphology: %v", err)
	}
}

func TestBuiltinAppliesMorphologyAndCondition(t *testing.T) {
	spec, err := experiment.Builtin("cnn", experiment.BuiltinConfig{
		Coordinates: 2, Seed: 1, Morphology: "radial", Condition: "noise", TrainEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dataset.Morphology != "radial" || spec.Dataset.Condition != "noise" {
		t.Errorf("Dataset axes = %q/%q, want radial/noise", spec.Dataset.Morphology, spec.Dataset.Condition)
	}
	if _, err := experiment.Builtin("cnn", experiment.BuiltinConfig{Coordinates: 2, Seed: 1, Morphology: "suburbia"}); err == nil {
		t.Error("Builtin accepted an unknown morphology")
	}
}

func TestEnvelopeFloors(t *testing.T) {
	// Every robustness kind has a contract: a floor in (0,1) under every
	// condition.
	for _, kind := range experiment.RobustnessKinds() {
		for _, cond := range dataset.Conditions() {
			floor := experiment.EnvelopeFloor(kind, cond)
			if floor <= 0 || floor >= 1 {
				t.Errorf("EnvelopeFloor(%s, %s) = %g, want in (0,1)", kind, cond, floor)
			}
			if night := experiment.EnvelopeFloor(kind, "night"); night > experiment.EnvelopeFloor(kind, "clean") {
				t.Errorf("%s: night floor %g above clean floor %g", kind, night, experiment.EnvelopeFloor(kind, "clean"))
			}
		}
		if got := experiment.EnvelopeFloor(kind, ""); got != experiment.EnvelopeFloor(kind, "clean") {
			t.Errorf("EnvelopeFloor(%s, \"\") = %g, want the clean floor", kind, got)
		}
	}
	if experiment.EnvelopeFloor("unlisted-backend", "clean") != 0 {
		t.Error("unlisted backends must floor at zero")
	}
	if experiment.EnvelopeFloor("vlm", "unlisted-condition") != 0 {
		t.Error("unlisted conditions must floor at zero")
	}
}

// matrixTestConfig is a small but real matrix: one morphology, two
// backends, two conditions, six coordinates.
func matrixTestConfig() experiment.MatrixConfig {
	return experiment.MatrixConfig{
		Builtin: experiment.BuiltinConfig{
			Coordinates:      6,
			Seed:             3,
			TrainEpochs:      1,
			MatrixKinds:      []string{"vlm", "cnn"},
			MatrixConditions: []string{"clean", "night"},
		},
		Morphologies: []string{"grid"},
	}
}

// TestRobustnessMatrixDeterministic pins the acceptance contract: the
// builtin robustness experiment is byte-identical for the same spec and
// seed, asserted through DiffRuns over the saved run artifacts.
func TestRobustnessMatrixDeterministic(t *testing.T) {
	runOnce := func(dir string) *experiment.MatrixResult {
		st, err := experiment.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		res, err := experiment.RunMatrix(context.Background(), matrixTestConfig(), st, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aDir, bDir := t.TempDir(), t.TempDir()
	a := runOnce(aDir)
	b := runOnce(bDir)

	if len(a.Runs) != 1 || a.Runs[0] != "robustness-grid" {
		t.Fatalf("runs = %v, want [robustness-grid]", a.Runs)
	}
	// 2 conditions x 2 backends on 1 morphology.
	if len(a.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(a.Cells))
	}
	for i, cell := range a.Cells {
		if cell != b.Cells[i] {
			t.Errorf("cell %d drifted between identical runs: %+v vs %+v", i, cell, b.Cells[i])
		}
	}

	stA, err := experiment.NewStore(aDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	stB, err := experiment.NewStore(bDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	diff, err := experiment.DiffRuns(stA.RunDir("robustness-grid"), stB.RunDir("robustness-grid"))
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Identical {
		t.Errorf("same matrix config produced different run artifacts: %+v", diff.Files)
	}
}

// TestRobustnessConditionsChangeEvaluation guards against the sweeps
// silently evaluating clean frames: a degraded cell must score
// differently from its clean counterpart somewhere in the matrix.
func TestRobustnessConditionsChangeEvaluation(t *testing.T) {
	res, err := experiment.RunMatrix(context.Background(), matrixTestConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]float64, len(res.Cells))
	for _, c := range res.Cells {
		byKey[c.Backend+"/"+c.Condition] = c.Accuracy
	}
	if byKey["vlm/clean"] == byKey["vlm/night"] && byKey["cnn/clean"] == byKey["cnn/night"] {
		t.Error("night cells scored identically to clean for every backend; condition override is not reaching evaluation")
	}
}

// TestAccuracyEnvelope is the build-failing property suite over the full
// robustness matrix: every backend kind under every capture condition on
// every world family, at the envelope's reference configuration (seed 0,
// 8-coordinate corpus, one training epoch), must clear its floor.
func TestAccuracyEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("full robustness matrix in -short mode")
	}
	cfg := experiment.MatrixConfig{
		Builtin: experiment.BuiltinConfig{Coordinates: 8, Seed: 0, TrainEpochs: 1},
	}
	res, err := experiment.RunMatrix(context.Background(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(world.Names()) * len(dataset.Conditions()) * len(experiment.RobustnessKinds())
	if len(res.Cells) != wantCells {
		t.Errorf("matrix has %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, cell := range res.Cells {
		if !cell.Pass {
			t.Errorf("%s/%s/%s accuracy %.4f below envelope floor %.2f",
				cell.Morphology, cell.Condition, cell.Backend, cell.Accuracy, cell.Floor)
		}
	}
	if t.Failed() || !res.AllPass {
		t.Error("accuracy envelope violated; see cells above")
	}
}
