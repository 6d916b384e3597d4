package vlm

import (
	"math"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/prompt"
	"nbhd/internal/scene"
)

// studyExamples renders a reduced study for evaluation tests.
func studyExamples(t *testing.T, coords int) (*dataset.Study, []dataset.Example) {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: coords, Seed: 1})
	if err != nil {
		t.Fatalf("BuildStudy: %v", err)
	}
	idx := make([]int, st.Len())
	for i := range idx {
		idx[i] = i
	}
	ex, err := st.RenderExamples(idx, 96)
	if err != nil {
		t.Fatalf("RenderExamples: %v", err)
	}
	return st, ex
}

func TestPerceiveMatchesGroundTruth(t *testing.T) {
	st, ex := studyExamples(t, 40)
	misses := 0
	for i, e := range ex {
		f, err := Perceive(e.Image)
		if err != nil {
			t.Fatalf("Perceive: %v", err)
		}
		sc := st.Frames[i].Scene
		checks := []struct {
			name string
			got  bool
			want bool
		}{
			{"road", f.Road != RoadNone, sc.Has(scene.SingleLaneRoad) || sc.Has(scene.MultilaneRoad)},
			{"sidewalk", f.Sidewalk, sc.Has(scene.Sidewalk)},
			{"streetlight", f.Streetlight, sc.Has(scene.Streetlight)},
			{"powerline", f.Powerline, sc.Has(scene.Powerline)},
			{"apartment", f.Apartment, sc.Has(scene.Apartment)},
		}
		for _, c := range checks {
			if c.got != c.want {
				misses++
			}
		}
		if f.Road == RoadMulti && sc.Has(scene.SingleLaneRoad) {
			misses++
		}
	}
	// Perception should be essentially exact on clean renders: the
	// paper-level confusion comes from the calibrated response model.
	if misses > len(ex)/20 {
		t.Errorf("perception missed %d cues over %d frames", misses, len(ex))
	}
}

func TestPerceivePartialRoad(t *testing.T) {
	st, ex := studyExamples(t, 40)
	for i, e := range ex {
		sc := st.Frames[i].Scene
		if !sc.Has(scene.SingleLaneRoad) && !sc.Has(scene.MultilaneRoad) {
			continue
		}
		f, err := Perceive(e.Image)
		if err != nil {
			t.Fatalf("Perceive: %v", err)
		}
		if f.Road == RoadNone {
			continue
		}
		wantPartial := sc.View == scene.ViewAcrossRoad
		if f.PartialRoad != wantPartial {
			t.Errorf("frame %s: partial = %v, view = %v", sc.ID, f.PartialRoad, sc.View)
		}
	}
}

func TestBuiltinProfilesValid(t *testing.T) {
	profiles := BuiltinProfiles()
	if len(profiles) != 4 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for id, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", id, err)
		}
		if p.ID != id {
			t.Errorf("profile map key %s has ID %s", id, p.ID)
		}
	}
}

func TestProfileFor(t *testing.T) {
	for _, id := range AllModels() {
		if _, err := ProfileFor(id); err != nil {
			t.Errorf("ProfileFor(%s): %v", id, err)
		}
	}
	if _, err := ProfileFor("gpt-5"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestProfileValidateRejectsBadValues(t *testing.T) {
	p, err := ProfileFor(Gemini15Pro)
	if err != nil {
		t.Fatal(err)
	}
	p.Recall[0] = 1.5
	if err := p.Validate(); err == nil {
		t.Error("recall > 1 accepted")
	}
	p, _ = ProfileFor(Gemini15Pro)
	p.ID = ""
	if err := p.Validate(); err == nil {
		t.Error("empty id accepted")
	}
	p, _ = ProfileFor(Gemini15Pro)
	p.PartialSRBoost = 5
	if err := p.Validate(); err == nil {
		t.Error("huge partial boost accepted")
	}
}

func TestClassifyValidation(t *testing.T) {
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	_, ex := studyExamples(t, 1)
	inds := scene.Indicators()
	if _, err := m.Classify(Request{Indicators: inds[:]}); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := m.Classify(Request{Image: ex[0].Image}); err == nil {
		t.Error("empty indicator list accepted")
	}
	if _, err := m.Classify(Request{Image: ex[0].Image, Indicators: []scene.Indicator{scene.Indicator(99)}}); err == nil {
		t.Error("unknown indicator accepted")
	}
}

// TestClassifySamplingErrors: sampling parameters outside the models'
// ranges, NaN and the infinities included, are rejected with exact
// messages, and CheckSampling takes a zero top-p as the default.
func TestClassifySamplingErrors(t *testing.T) {
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	_, ex := studyExamples(t, 1)
	inds := scene.Indicators()
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		temperature, topP float64
		want              string
	}{
		{3, 0, "vlm: gemini-1.5-pro: temperature 3.000000 outside [0,2]"},
		{-0.1, 0, "vlm: gemini-1.5-pro: temperature -0.100000 outside [0,2]"},
		{nan, 0, "vlm: gemini-1.5-pro: temperature NaN outside [0,2]"},
		{inf, 0, "vlm: gemini-1.5-pro: temperature +Inf outside [0,2]"},
		{-inf, 0, "vlm: gemini-1.5-pro: temperature -Inf outside [0,2]"},
		{0, 1.5, "vlm: gemini-1.5-pro: top-p 1.500000 outside (0,1]"},
		{0, -0.5, "vlm: gemini-1.5-pro: top-p -0.500000 outside (0,1]"},
		{0, nan, "vlm: gemini-1.5-pro: top-p NaN outside (0,1]"},
		{0, inf, "vlm: gemini-1.5-pro: top-p +Inf outside (0,1]"},
		{2, 1, ""},
		{0.01, 0.01, ""},
	} {
		req := Request{Image: ex[0].Image, Indicators: inds[:], Temperature: tc.temperature, TopP: tc.topP}
		_, err := m.Classify(req)
		if got := errString(err); got != tc.want {
			t.Errorf("temperature %v, top-p %v: error %q, want %q", tc.temperature, tc.topP, got, tc.want)
		}
		if _, err := m.ClassifyPerceived(req, Features{}); errString(err) != tc.want {
			t.Errorf("temperature %v, top-p %v: ClassifyPerceived error %q, want %q", tc.temperature, tc.topP, errString(err), tc.want)
		}
	}
	if err := CheckSampling(0, 0); err != nil {
		t.Errorf("CheckSampling(0, 0) = %v, want nil (zeros mean the defaults)", err)
	}
}

// errString is err's message, or "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func mustProfile(t *testing.T, id ModelID) Profile {
	t.Helper()
	p, err := ProfileFor(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClassifyDeterministic(t *testing.T) {
	m, err := NewModel(mustProfile(t, Claude37))
	if err != nil {
		t.Fatal(err)
	}
	_, ex := studyExamples(t, 1)
	inds := scene.Indicators()
	req := Request{Image: ex[0].Image, Indicators: inds[:]}
	a, err := m.Classify(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Classify(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical requests produced different answers")
		}
	}
	// Different nonce can change answers (stochastic sampling).
	different := false
	for nonce := int64(1); nonce <= 20 && !different; nonce++ {
		c, err := m.Classify(Request{Image: ex[0].Image, Indicators: inds[:], Nonce: nonce})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if c[i] != a[i] {
				different = true
			}
		}
	}
	if !different {
		t.Error("20 nonces never changed any answer; sampling looks degenerate")
	}
}

// evalModel computes per-class confusion stats for a model over a study.
func evalModel(t *testing.T, m *Model, st *dataset.Study, ex []dataset.Example, req func(e dataset.Example) Request) [scene.NumIndicators]struct{ tp, fp, tn, fn int } {
	t.Helper()
	var cms [scene.NumIndicators]struct{ tp, fp, tn, fn int }
	for i, e := range ex {
		ans, err := m.Classify(req(e))
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		truth := st.Frames[i].Scene.Presence()
		for k := 0; k < scene.NumIndicators; k++ {
			c := &cms[k]
			switch {
			case ans[k] && truth[k]:
				c.tp++
			case ans[k] && !truth[k]:
				c.fp++
			case !ans[k] && truth[k]:
				c.fn++
			default:
				c.tn++
			}
		}
	}
	return cms
}

// TestCalibrationMatchesPaperTables reproduces the shape of Tables III-VI
// on a reduced study: average accuracies within tolerance of the paper's
// 84/88/86/84, Gemini the best single model, and single-lane road every
// model's worst class.
func TestCalibrationMatchesPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in -short mode")
	}
	st, ex := studyExamples(t, 150)
	inds := scene.Indicators()
	paperAvgAcc := map[ModelID]float64{
		ChatGPT4oMini: 0.84,
		Gemini15Pro:   0.88,
		Claude37:      0.86,
		Grok2:         0.84,
	}
	got := make(map[ModelID]float64, 4)
	for _, id := range AllModels() {
		m, err := NewModel(mustProfile(t, id))
		if err != nil {
			t.Fatal(err)
		}
		cms := evalModel(t, m, st, ex, func(e dataset.Example) Request {
			return Request{Image: e.Image, Indicators: inds[:]}
		})
		var accSum float64
		worstAcc, worstClass := 2.0, scene.Indicator(0)
		for k := range cms {
			c := cms[k]
			acc := float64(c.tp+c.tn) / float64(c.tp+c.fp+c.tn+c.fn)
			accSum += acc
			if acc < worstAcc {
				worstAcc, worstClass = acc, inds[k]
			}
		}
		avg := accSum / 6
		got[id] = avg
		if math.Abs(avg-paperAvgAcc[id]) > 0.05 {
			t.Errorf("%s avg accuracy = %.3f, paper %.2f", id, avg, paperAvgAcc[id])
		}
		if worstClass != scene.SingleLaneRoad {
			t.Errorf("%s worst class = %v (%.2f), paper reports single-lane road", id, worstClass, worstAcc)
		}
	}
	// Gemini is the best single model.
	for _, id := range AllModels() {
		if id != Gemini15Pro && got[id] >= got[Gemini15Pro] {
			t.Errorf("%s (%.3f) should not beat Gemini (%.3f)", id, got[id], got[Gemini15Pro])
		}
	}
}

// TestSequentialPromptingHurtsRecall reproduces Fig. 4's direction.
func TestSequentialPromptingHurtsRecall(t *testing.T) {
	st, ex := studyExamples(t, 120)
	inds := scene.Indicators()
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	recall := func(mode prompt.Mode) float64 {
		cms := evalModel(t, m, st, ex, func(e dataset.Example) Request {
			return Request{Image: e.Image, Indicators: inds[:], Mode: mode}
		})
		var sum float64
		for k := range cms {
			c := cms[k]
			if c.tp+c.fn > 0 {
				sum += float64(c.tp) / float64(c.tp+c.fn)
			}
		}
		return sum / 6
	}
	par, seq := recall(prompt.Parallel), recall(prompt.Sequential)
	if par <= seq {
		t.Errorf("parallel recall %.3f should exceed sequential %.3f", par, seq)
	}
}

// TestLanguageOrdering reproduces Fig. 6's direction: EN > BN > ES > ZH
// for Gemini, with the Chinese sidewalk collapse.
func TestLanguageOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("language sweep in -short mode")
	}
	st, ex := studyExamples(t, 120)
	inds := scene.Indicators()
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	avgRecall := make(map[prompt.Language]float64)
	swRecall := make(map[prompt.Language]float64)
	for _, lang := range prompt.Languages() {
		cms := evalModel(t, m, st, ex, func(e dataset.Example) Request {
			return Request{Image: e.Image, Indicators: inds[:], Language: lang}
		})
		var sum float64
		for k := range cms {
			c := cms[k]
			r := 0.0
			if c.tp+c.fn > 0 {
				r = float64(c.tp) / float64(c.tp+c.fn)
			}
			sum += r
			if inds[k] == scene.Sidewalk {
				swRecall[lang] = r
			}
		}
		avgRecall[lang] = sum / 6
	}
	if !(avgRecall[prompt.English] > avgRecall[prompt.Bengali] &&
		avgRecall[prompt.Bengali] > avgRecall[prompt.Spanish] &&
		avgRecall[prompt.Spanish] > avgRecall[prompt.Chinese]) {
		t.Errorf("language ordering wrong: EN=%.3f BN=%.3f ES=%.3f ZH=%.3f",
			avgRecall[prompt.English], avgRecall[prompt.Bengali],
			avgRecall[prompt.Spanish], avgRecall[prompt.Chinese])
	}
	if swRecall[prompt.Chinese] > 0.1 {
		t.Errorf("Chinese sidewalk recall = %.3f, paper reports ~0.01", swRecall[prompt.Chinese])
	}
}

// TestSamplingParametersNearFlat reproduces §IV-C4: off-default
// temperature or top-p shifts accuracy only slightly.
func TestSamplingParametersNearFlat(t *testing.T) {
	st, ex := studyExamples(t, 100)
	inds := scene.Indicators()
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	acc := func(temp, topP float64) float64 {
		cms := evalModel(t, m, st, ex, func(e dataset.Example) Request {
			return Request{Image: e.Image, Indicators: inds[:], Temperature: temp, TopP: topP}
		})
		var sum float64
		for k := range cms {
			c := cms[k]
			sum += float64(c.tp+c.tn) / float64(c.tp+c.fp+c.tn+c.fn)
		}
		return sum / 6
	}
	base := acc(DefaultTemperature, DefaultTopP)
	for _, temp := range []float64{0.1, 1.5} {
		v := acc(temp, DefaultTopP)
		if v > base {
			t.Logf("temperature %.1f acc %.3f above default %.3f (allowed: near-flat)", temp, v, base)
		}
		if base-v > 0.08 {
			t.Errorf("temperature %.1f dropped accuracy %.3f -> %.3f; paper reports near-flat", temp, base, v)
		}
		if base-v < 0 && v-base > 0.04 {
			t.Errorf("temperature %.1f improved accuracy implausibly: %.3f -> %.3f", temp, base, v)
		}
	}
	for _, topP := range []float64{0.5, 0.75} {
		v := acc(DefaultTemperature, topP)
		if base-v > 0.08 || v-base > 0.04 {
			t.Errorf("top-p %.2f moved accuracy %.3f -> %.3f; paper reports near-flat", topP, base, v)
		}
	}
}

func TestSamplingFlip(t *testing.T) {
	if f := samplingFlip(DefaultTemperature, DefaultTopP); f != 0 {
		t.Errorf("default sampling flip = %f, want 0", f)
	}
	if samplingFlip(0.1, DefaultTopP) <= 0 {
		t.Error("low temperature should add flip noise")
	}
	if samplingFlip(1.5, DefaultTopP) <= 0 {
		t.Error("high temperature should add flip noise")
	}
	if samplingFlip(DefaultTemperature, 0.5) <= 0 {
		t.Error("low top-p should add flip noise")
	}
	// Flip is capped.
	if f := samplingFlip(2, 0.01); f > 0.25 {
		t.Errorf("flip %f exceeds cap", f)
	}
}

// TestFewShotMitigatesLanguageGap reproduces the §V suggestion: adding
// in-context examples closes part of the non-English recall gap.
func TestFewShotMitigatesLanguageGap(t *testing.T) {
	st, ex := studyExamples(t, 100)
	inds := scene.Indicators()
	m, err := NewModel(mustProfile(t, Gemini15Pro))
	if err != nil {
		t.Fatal(err)
	}
	recall := func(shots int) float64 {
		cms := evalModel(t, m, st, ex, func(e dataset.Example) Request {
			return Request{Image: e.Image, Indicators: inds[:], Language: prompt.Chinese, Shots: shots}
		})
		var sum float64
		for k := range cms {
			c := cms[k]
			if c.tp+c.fn > 0 {
				sum += float64(c.tp) / float64(c.tp+c.fn)
			}
		}
		return sum / 6
	}
	zero, four, eight := recall(0), recall(4), recall(8)
	if !(zero < four && four < eight) {
		t.Errorf("few-shot recall not monotone: 0-shot %.3f, 4-shot %.3f, 8-shot %.3f", zero, four, eight)
	}
	// Shots never fully close the gap to English.
	english := func() float64 {
		cms := evalModel(t, m, st, ex, func(e dataset.Example) Request {
			return Request{Image: e.Image, Indicators: inds[:], Language: prompt.English}
		})
		var sum float64
		for k := range cms {
			c := cms[k]
			if c.tp+c.fn > 0 {
				sum += float64(c.tp) / float64(c.tp+c.fn)
			}
		}
		return sum / 6
	}()
	if eight > english+0.02 {
		t.Errorf("8-shot Chinese recall %.3f exceeds English %.3f", eight, english)
	}
	// Shots validation.
	if _, err := m.Classify(Request{Image: ex[0].Image, Indicators: inds[:], Shots: -1}); err == nil {
		t.Error("negative shots accepted")
	}
	if _, err := m.Classify(Request{Image: ex[0].Image, Indicators: inds[:], Shots: 100}); err == nil {
		t.Error("absurd shot count accepted")
	}
}
