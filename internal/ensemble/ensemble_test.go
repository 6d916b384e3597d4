package ensemble

import (
	"slices"
	"testing"
	"testing/quick"

	"nbhd/internal/dataset"
	"nbhd/internal/metrics"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

func TestVoteMajority(t *testing.T) {
	answers := [][]bool{
		{true, false, true},
		{true, true, false},
		{false, false, true},
	}
	got, err := Vote(answers)
	if err != nil {
		t.Fatalf("Vote: %v", err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("vote[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVoteEvenSplitIsAbsent(t *testing.T) {
	got, err := Vote([][]bool{{true}, {false}})
	if err != nil {
		t.Fatalf("Vote: %v", err)
	}
	if got[0] {
		t.Error("even split should predict absent")
	}
}

func TestVoteValidation(t *testing.T) {
	if _, err := Vote(nil); err == nil {
		t.Error("empty vote accepted")
	}
	if _, err := Vote([][]bool{{true}, {true, false}}); err == nil {
		t.Error("ragged vectors accepted")
	}
}

func TestVoteSingleModel(t *testing.T) {
	got, err := Vote([][]bool{{true, false}})
	if err != nil {
		t.Fatalf("Vote: %v", err)
	}
	if !got[0] || got[1] {
		t.Error("single-model vote should pass through")
	}
}

func reportWithAccuracy(t *testing.T, acc float64) *metrics.ClassReport {
	t.Helper()
	var r metrics.ClassReport
	// Build each class's confusion so accuracy == acc using 100 samples.
	right := int(acc * 100)
	for _, ind := range scene.Indicators() {
		for i := 0; i < right; i++ {
			if err := r.Add(ind, true, true); err != nil {
				t.Fatal(err)
			}
		}
		for i := right; i < 100; i++ {
			if err := r.Add(ind, true, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &r
}

func TestSelectTop(t *testing.T) {
	reports := map[string]*metrics.ClassReport{
		string(vlm.ChatGPT4oMini): reportWithAccuracy(t, 0.84),
		string(vlm.Gemini15Pro):   reportWithAccuracy(t, 0.88),
		string(vlm.Claude37):      reportWithAccuracy(t, 0.86),
		string(vlm.Grok2):         reportWithAccuracy(t, 0.84),
	}
	top, err := SelectTop(reports, 3)
	if err != nil {
		t.Fatalf("SelectTop: %v", err)
	}
	if len(top) != 3 {
		t.Fatalf("top = %d entries", len(top))
	}
	if top[0].ID != string(vlm.Gemini15Pro) {
		t.Errorf("best = %s, want Gemini", top[0].ID)
	}
	if top[1].ID != string(vlm.Claude37) {
		t.Errorf("second = %s, want Claude", top[1].ID)
	}
	// ChatGPT and Grok tie at 0.84; lexicographic order puts chatgpt
	// first.
	if top[2].ID != string(vlm.ChatGPT4oMini) {
		t.Errorf("third = %s, want ChatGPT (tie-break)", top[2].ID)
	}
	// Oversized k clamps.
	all, err := SelectTop(reports, 10)
	if err != nil {
		t.Fatalf("SelectTop: %v", err)
	}
	if len(all) != 4 {
		t.Errorf("all = %d", len(all))
	}
}

func TestSelectTopValidation(t *testing.T) {
	if _, err := SelectTop(nil, 3); err == nil {
		t.Error("empty reports accepted")
	}
	if _, err := SelectTop(map[string]*metrics.ClassReport{string(vlm.Grok2): {}}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestFuseHeadings(t *testing.T) {
	perHeading := [][scene.NumIndicators]bool{
		{true, false, false, false, false, false},
		{false, false, false, false, false, false},
		{false, false, false, false, false, false},
		{true, true, false, false, false, false},
	}
	anyFused, err := FuseHeadings(perHeading, FuseAny)
	if err != nil {
		t.Fatalf("FuseHeadings: %v", err)
	}
	if !anyFused[0] || !anyFused[1] || anyFused[2] {
		t.Errorf("any fusion = %v", anyFused)
	}
	maj, err := FuseHeadings(perHeading, FuseMajority)
	if err != nil {
		t.Fatalf("FuseHeadings: %v", err)
	}
	// Indicator 0 seen in 2/4 headings: not a strict majority.
	if maj[0] || maj[1] {
		t.Errorf("majority fusion = %v", maj)
	}
	if _, err := FuseHeadings(nil, FuseAny); err == nil {
		t.Error("empty fusion accepted")
	}
	if _, err := FuseHeadings(perHeading, FusionStrategy(9)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestFusionStrategyString(t *testing.T) {
	if FuseAny.String() != "any" || FuseMajority.String() != "majority" {
		t.Error("strategy names wrong")
	}
	if FusionStrategy(9).String() != "FusionStrategy(9)" {
		t.Error("unknown strategy name wrong")
	}
}

func TestPaperCommittee(t *testing.T) {
	got := PaperCommittee()
	want := []vlm.ModelID{vlm.Gemini15Pro, vlm.Claude37, vlm.Grok2}
	if !slices.Equal(got, want) {
		t.Fatalf("PaperCommittee() = %v, want %v", got, want)
	}
	// Each call returns a fresh slice: a caller may not edit the paper's
	// committee for the next caller.
	got[0] = vlm.ChatGPT4oMini
	if PaperCommittee()[0] != vlm.Gemini15Pro {
		t.Error("PaperCommittee shares its slice across calls")
	}
}

// TestCommitteeClassify: the paper's committee, each member asked about
// one rendered study frame and the answers put to Vote, gives one answer
// per indicator, and the same answers whether the members perceive the
// frame themselves or share precomputed features.
func TestCommitteeClassify(t *testing.T) {
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := st.RenderExamples([]int{0}, 96)
	if err != nil {
		t.Fatal(err)
	}
	inds := scene.Indicators()
	req := vlm.Request{Image: ex[0].Image, Indicators: inds[:]}
	feats, err := vlm.Perceive(ex[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	var plain, perceived [][]bool
	for _, id := range PaperCommittee() {
		p, err := vlm.ProfileFor(id)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vlm.NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := m.Classify(req)
		if err != nil {
			t.Fatalf("%s Classify: %v", id, err)
		}
		plain = append(plain, a)
		a, err = m.ClassifyPerceived(req, feats)
		if err != nil {
			t.Fatalf("%s ClassifyPerceived: %v", id, err)
		}
		perceived = append(perceived, a)
	}
	answers, err := Vote(plain)
	if err != nil {
		t.Fatalf("Vote: %v", err)
	}
	if len(answers) != scene.NumIndicators {
		t.Fatalf("answers = %d, want %d", len(answers), scene.NumIndicators)
	}
	fast, err := Vote(perceived)
	if err != nil {
		t.Fatalf("Vote: %v", err)
	}
	if !slices.Equal(answers, fast) {
		t.Errorf("perceived-path vote %v differs from plain vote %v", fast, answers)
	}
}

// TestMajorityVotingBeatsMembers reproduces the paper's headline ensemble
// result at reduced scale: the three-model committee's average accuracy
// exceeds every individual member's.
func TestMajorityVotingBeatsMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble sweep in -short mode")
	}
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, st.Len())
	for i := range idx {
		idx[i] = i
	}
	ex, err := st.RenderExamples(idx, 96)
	if err != nil {
		t.Fatal(err)
	}
	inds := scene.Indicators()

	memberIDs := PaperCommittee()
	members := make([]*vlm.Model, len(memberIDs))
	for i, id := range memberIDs {
		p, err := vlm.ProfileFor(id)
		if err != nil {
			t.Fatal(err)
		}
		members[i], err = vlm.NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	memberAcc := make([]float64, len(members))
	var committeeAcc float64
	var memberReports = make([]metrics.ClassReport, len(members))
	var committeeReport metrics.ClassReport
	for i, e := range ex {
		truth := st.Frames[i].Scene.Presence()
		req := vlm.Request{Image: e.Image, Indicators: inds[:]}
		var all [][]bool
		for mi, m := range members {
			ans, err := m.Classify(req)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, ans)
			var pred [scene.NumIndicators]bool
			copy(pred[:], ans)
			memberReports[mi].AddVector(pred, truth)
		}
		voted, err := Vote(all)
		if err != nil {
			t.Fatal(err)
		}
		var pred [scene.NumIndicators]bool
		copy(pred[:], voted)
		committeeReport.AddVector(pred, truth)
	}
	for mi := range members {
		_, _, _, acc := memberReports[mi].Averages()
		memberAcc[mi] = acc
	}
	_, _, _, committeeAcc = committeeReport.Averages()
	for mi, id := range memberIDs {
		if committeeAcc <= memberAcc[mi] {
			t.Errorf("committee accuracy %.3f does not beat %s (%.3f)", committeeAcc, id, memberAcc[mi])
		}
	}
	// Paper reports 88.5% for the committee; allow generous tolerance at
	// reduced scale.
	if committeeAcc < 0.84 || committeeAcc > 0.95 {
		t.Errorf("committee accuracy %.3f outside plausible band around paper's 0.885", committeeAcc)
	}
}

// Property: voting is order-invariant in the model axis and agrees with
// unanimity.
func TestVoteProperties(t *testing.T) {
	f := func(a, b, c []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		if n == 0 {
			return true
		}
		a, b, c = a[:n], b[:n], c[:n]
		v1, err := Vote([][]bool{a, b, c})
		if err != nil {
			return false
		}
		v2, err := Vote([][]bool{c, a, b})
		if err != nil {
			return false
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				return false
			}
			// Unanimity dominates.
			if a[i] && b[i] && c[i] && !v1[i] {
				return false
			}
			if !a[i] && !b[i] && !c[i] && v1[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fusing identical heading vectors returns that vector under
// both strategies.
func TestFuseIdenticalProperty(t *testing.T) {
	f := func(bits uint8) bool {
		var v [scene.NumIndicators]bool
		for k := 0; k < scene.NumIndicators; k++ {
			v[k] = bits&(1<<k) != 0
		}
		per := [][scene.NumIndicators]bool{v, v, v, v}
		anyF, err := FuseHeadings(per, FuseAny)
		if err != nil {
			return false
		}
		majF, err := FuseHeadings(per, FuseMajority)
		if err != nil {
			return false
		}
		return anyF == v && majF == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSelectTopAllTiedIsDeterministic: with every model at the same
// accuracy, repeated selections must return the same lexicographic
// order — map iteration randomness must never leak into the committee.
func TestSelectTopAllTiedIsDeterministic(t *testing.T) {
	reports := map[string]*metrics.ClassReport{
		string(vlm.ChatGPT4oMini): reportWithAccuracy(t, 0.9),
		string(vlm.Gemini15Pro):   reportWithAccuracy(t, 0.9),
		string(vlm.Claude37):      reportWithAccuracy(t, 0.9),
		string(vlm.Grok2):         reportWithAccuracy(t, 0.9),
	}
	first, err := SelectTop(reports, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].ID > first[i].ID {
			t.Fatalf("tied selection not lexicographic: %v", first)
		}
	}
	for trial := 0; trial < 50; trial++ {
		again, err := SelectTop(reports, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if again[i].ID != first[i].ID {
				t.Fatalf("trial %d: order %v differs from %v", trial, again, first)
			}
		}
	}
}

// TestSelectTopKLargerThanReports: k beyond the report count clamps to
// all models, still fully ordered.
func TestSelectTopKLargerThanReports(t *testing.T) {
	reports := map[string]*metrics.ClassReport{
		string(vlm.Grok2):       reportWithAccuracy(t, 0.8),
		string(vlm.Gemini15Pro): reportWithAccuracy(t, 0.9),
	}
	top, err := SelectTop(reports, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("top = %d entries, want 2", len(top))
	}
	if top[0].ID != string(vlm.Gemini15Pro) || top[1].ID != string(vlm.Grok2) {
		t.Errorf("order = %v", top)
	}
	// A single report works for any positive k.
	solo, err := SelectTop(map[string]*metrics.ClassReport{string(vlm.Claude37): reportWithAccuracy(t, 0.7)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 1 || solo[0].ID != string(vlm.Claude37) {
		t.Errorf("solo = %v", solo)
	}
}

// TestFuseHeadingsEmptyInputs: nil and empty (non-nil) inputs both
// error under both strategies rather than fabricating a vector.
func TestFuseHeadingsEmptyInputs(t *testing.T) {
	for _, strategy := range []FusionStrategy{FuseAny, FuseMajority} {
		if _, err := FuseHeadings(nil, strategy); err == nil {
			t.Errorf("%s: nil headings accepted", strategy)
		}
		if _, err := FuseHeadings([][scene.NumIndicators]bool{}, strategy); err == nil {
			t.Errorf("%s: empty headings accepted", strategy)
		}
	}
}

// TestFuseHeadingsSingleHeading: one heading is the identity for both
// strategies.
func TestFuseHeadingsSingleHeading(t *testing.T) {
	v := [scene.NumIndicators]bool{true, false, true, false, false, true}
	for _, strategy := range []FusionStrategy{FuseAny, FuseMajority} {
		got, err := FuseHeadings([][scene.NumIndicators]bool{v}, strategy)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if got != v {
			t.Errorf("%s: single-heading fusion = %v, want %v", strategy, got, v)
		}
	}
}

// TestFuseMajorityEvenSplitIsAbsent: exactly half the headings seeing
// an indicator is not a strict majority.
func TestFuseMajorityEvenSplitIsAbsent(t *testing.T) {
	per := [][scene.NumIndicators]bool{
		{true, true, false, false, false, false},
		{false, true, false, false, false, false},
	}
	got, err := FuseHeadings(per, FuseMajority)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] {
		t.Error("1/2 split fused to present under strict majority")
	}
	if !got[1] {
		t.Error("2/2 unanimity fused to absent")
	}
}
