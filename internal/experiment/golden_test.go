package experiment_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nbhd/internal/analysis"
	"nbhd/internal/experiment"
)

// runBuiltin executes a builtin spec at the given scale through the
// runner.
func runBuiltin(t *testing.T, name string, coords int, seed int64) *experiment.Result {
	t.Helper()
	spec, err := experiment.Builtin(name, experiment.BuiltinConfig{Coordinates: coords, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertGolden compares got byte-for-byte against testdata/file.
func assertGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from testdata/%s:\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}

// TestRunnerBitIdenticalToLegacyPath pins the Fig. 5 ladder: the
// builtin f5 spec (10 coordinates, seed 5) must encode byte-identically
// to the checked-in per-model and voting report JSON, which the
// pre-runner per-model and majority-voting evaluation path produced
// before it was retired. Any divergence in a confusion cell, a derived
// metric, committee selection, or encoding order fails.
func TestRunnerBitIdenticalToLegacyPath(t *testing.T) {
	res := runBuiltin(t, "f5", 10, 5)
	for sweep, file := range map[string]string{"f5:models": "f5_models.json", "f5:voting": "f5_voting.json"} {
		got, err := experiment.EncodeSweepReports(*res.Sweep(sweep))
		if err != nil {
			t.Fatal(err)
		}
		assertGolden(t, file, got)
	}
}

// TestRunnerAnalysisMatchesLegacyAnalyze pins the neighborhood-analysis
// step the same way: the builtin neighborhood spec (8 coordinates, seed
// 5, 5000 ft tracts) must reproduce exactly the locations, tracts and
// associations the retired pre-runner analysis path checked in.
func TestRunnerAnalysisMatchesLegacyAnalyze(t *testing.T) {
	got := runBuiltin(t, "neighborhood", 8, 5).Analysis("neighborhood").Result
	data, err := json.MarshalIndent(struct {
		Locations    []analysis.LocationProfile `json:"locations"`
		Tracts       []analysis.TractProfile    `json:"tracts"`
		Associations []analysis.Association     `json:"associations"`
	}{got.Locations, got.Tracts, got.Associations}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "neighborhood.json", append(data, '\n'))
}
