package lab_test

import (
	"encoding/json"
	"testing"

	"nbhd/internal/experiment"
	"nbhd/internal/lab"
)

// TestRobustnessBuiltinJob proves the daemon schedules the robustness
// matrix by builtin name: "robustness:grid" resolves as a builtin (the
// ':' is not a path marker), runs under the config's matrix
// restrictions, and baseline-diffs byte-identical across runs.
func TestRobustnessBuiltinJob(t *testing.T) {
	cfg := lab.Config{
		Builtin: experiment.BuiltinConfig{
			Coordinates:      4,
			Seed:             2,
			TrainEpochs:      1,
			MatrixKinds:      []string{"vlm", "cnn"},
			MatrixConditions: []string{"clean", "night"},
		},
		Jobs: []lab.JobConfig{{Name: "robustness", Spec: "robustness:grid"}},
	}
	l, err := lab.Open(t.TempDir(), cfg, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(t, l)

	run1 := c.enqueueJob("robustness")
	rec1 := c.waitStatus(run1, lab.StatusDone)
	// 2 condition sweeps x 2 backend kinds.
	if rec1.Cells != 4 {
		t.Errorf("run1 cells = %d, want 4", rec1.Cells)
	}

	run2 := c.enqueueJob("robustness")
	rec2 := c.waitStatus(run2, lab.StatusDone)
	if rec2.Diff == nil {
		t.Fatal("second robustness run has no baseline diff")
	}
	if rec2.Diff.Against != run1 || !rec2.Diff.Identical {
		t.Errorf("robustness run drifted from its baseline: %+v", rec2.Diff)
	}

	var q lab.QueueSnapshot
	_, body := c.get("/queuez")
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Jobs["robustness"].Baseline != run2 {
		t.Errorf("baseline %q after identical run, want %q", q.Jobs["robustness"].Baseline, run2)
	}
}
