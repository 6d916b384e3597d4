package experiment

import (
	"slices"
	"testing"

	"nbhd/internal/core"
	"nbhd/internal/metrics"
)

// TestKeepFrames pins which sweeps keep their frames: only those a
// later step walks the corpus after, every sweep under a store_dir.
func TestKeepFrames(t *testing.T) {
	builtin := func(name string) Spec {
		t.Helper()
		s, err := Builtin(name, BuiltinConfig{Coordinates: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	restored := func(cells ...string) *Checkpoint {
		cp := &Checkpoint{Reports: map[string]CellReport{}}
		for _, c := range cells {
			cp.Reports[c] = CellReport{Report: &metrics.ClassReport{}}
		}
		return cp
	}
	withAnalysis := builtin("tables")
	withAnalysis.Analyses = []AnalysisSpec{{Name: "tracts", Backend: "gemini-1.5-pro"}}
	voteOther := builtin("f5")
	voteOther.Sweeps[1].Options = OptionsSpec{TopP: 0.5}
	voteClean := builtin("f5")
	voteClean.Sweeps[1].Options = OptionsSpec{Condition: "clean"}
	nightCorpus := builtin("f5")
	nightCorpus.Dataset.Condition = "night"
	nightCorpus.Sweeps[1].Options = OptionsSpec{Condition: "night"}
	stored := builtin("f5")
	stored.Dataset.StoreDir = "frames"

	for _, tc := range []struct {
		name string
		spec Spec
		cp   *Checkpoint
		want []bool
	}{
		{"f5: the vote reuses the drawn answers", builtin("f5"), nil, []bool{false, false}},
		{"f6", builtin("f6"), nil, []bool{true, true, true, false}},
		{"f6 with the last sweep restored", builtin("f6"), restored(SweepCellID("f6:Bengali", "gemini-1.5-pro")), []bool{true, true, false, false}},
		{"f4", builtin("f4"), nil, []bool{true, false}},
		{"analysis", withAnalysis, nil, []bool{true}},
		{"analysis restored", withAnalysis, &Checkpoint{Analyses: map[string]*core.NeighborhoodResult{AnalysisCellID("tracts"): {}}}, []bool{false}},
		{"vote under other options", voteOther, nil, []bool{true, false}},
		{"vote spelling out clean", voteClean, nil, []bool{false, false}},
		{"vote spelling out the corpus condition", nightCorpus, nil, []bool{false, false}},
		{"restored source cell", builtin("f5"), restored(SweepCellID("f5:models", "grok-2")), []bool{true, false}},
		{"restored source and vote cells", builtin("f5"), restored(SweepCellID("f5:models", "grok-2"), SweepCellID("f5:voting", "f5:voting")), []bool{false, false}},
		{"store_dir", stored, nil, []bool{true, true}},
	} {
		if err := tc.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := keepFrames(&tc.spec, tc.cp); !slices.Equal(got, tc.want) {
			t.Errorf("%s: keepFrames = %v, want %v", tc.name, got, tc.want)
		}
	}
}
