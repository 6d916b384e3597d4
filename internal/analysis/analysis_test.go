package analysis

import (
	"math"
	"testing"

	"nbhd/internal/geo"
	"nbhd/internal/scene"
)

func locAt(county string, latFeet, lngFeet float64, presence [scene.NumIndicators]bool) LocationProfile {
	return LocationProfile{
		Coordinate: geo.Coordinate{
			Lat: latFeet / geo.FeetPerDegreeLat,
			Lng: lngFeet / geo.FeetPerDegreeLat, // near equator cos≈1
		},
		County:   county,
		Presence: presence,
	}
}

func TestTractsBucketsByCell(t *testing.T) {
	var withSW, without [scene.NumIndicators]bool
	withSW[scene.Sidewalk.Index()] = true
	locs := []LocationProfile{
		locAt("a", 100, 100, withSW),
		locAt("a", 200, 200, without),  // same 1000ft cell
		locAt("a", 5000, 5000, withSW), // different cell
	}
	tracts, err := Tracts(locs, 1000)
	if err != nil {
		t.Fatalf("Tracts: %v", err)
	}
	if len(tracts) != 2 {
		t.Fatalf("tracts = %d, want 2", len(tracts))
	}
	// Find the two-location tract.
	var big *TractProfile
	for i := range tracts {
		if tracts[i].Locations == 2 {
			big = &tracts[i]
		}
	}
	if big == nil {
		t.Fatal("no 2-location tract")
	}
	if got := big.Rates[scene.Sidewalk.Index()]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sidewalk rate = %f, want 0.5", got)
	}
}

func TestTractsValidation(t *testing.T) {
	if _, err := Tracts(nil, 1000); err == nil {
		t.Error("empty locations accepted")
	}
	if _, err := Tracts([]LocationProfile{{}}, 0); err == nil {
		t.Error("zero cell size accepted")
	}
}

func TestTractsDeterministicOrder(t *testing.T) {
	var p [scene.NumIndicators]bool
	locs := []LocationProfile{
		locAt("b", 100, 100, p),
		locAt("a", 9000, 9000, p),
		locAt("c", 20000, 100, p),
	}
	a, err := Tracts(locs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tracts(locs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].TractID != b[i].TractID {
			t.Fatal("tract order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].TractID > a[i].TractID {
			t.Fatal("tracts not sorted")
		}
	}
}

func TestScore(t *testing.T) {
	tp := TractProfile{TractID: "x", Locations: 4}
	tp.Rates[scene.Sidewalk.Index()] = 0.8
	tp.Rates[scene.Streetlight.Index()] = 0.4
	tp.Rates[scene.Powerline.Index()] = 0.5
	tp.Rates[scene.MultilaneRoad.Index()] = 1.0
	scores := Score([]TractProfile{tp})
	if len(scores) != 1 {
		t.Fatalf("scores = %d", len(scores))
	}
	if math.Abs(scores[0].Walkability-0.6) > 1e-12 {
		t.Errorf("walkability = %f", scores[0].Walkability)
	}
	if math.Abs(scores[0].Burden-0.3) > 1e-12 {
		t.Errorf("burden = %f", scores[0].Burden)
	}
}

func TestHealthModelGenerate(t *testing.T) {
	m := DefaultObesityModel(1)
	var highPL, lowPL TractProfile
	highPL.TractID = "high"
	highPL.Rates[scene.Powerline.Index()] = 1.0
	lowPL.TractID = "low"
	lowPL.Rates[scene.Sidewalk.Index()] = 1.0

	out, err := m.Generate([]TractProfile{highPL, lowPL})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("outcomes = %d", len(out))
	}
	if out[0].Prevalence <= out[1].Prevalence {
		t.Errorf("powerline tract prevalence %f should exceed sidewalk tract %f", out[0].Prevalence, out[1].Prevalence)
	}
	for _, o := range out {
		if o.Prevalence < 0 || o.Prevalence > 1 {
			t.Errorf("prevalence %f outside [0,1]", o.Prevalence)
		}
	}
	if _, err := m.Generate(nil); err == nil {
		t.Error("empty tract list accepted")
	}
	bad := m
	bad.NoiseSD = -1
	if _, err := bad.Generate([]TractProfile{highPL}); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestAssociationsRecoverSigns(t *testing.T) {
	// Build tracts spanning the indicator-rate space and generate
	// outcomes; the estimated associations must recover the model's
	// coefficient signs.
	var tracts []TractProfile
	for i := 0; i < 40; i++ {
		var tp TractProfile
		tp.TractID = string(rune('a'+i%26)) + string(rune('0'+i/26))
		tp.Locations = 5
		tp.Rates[scene.Powerline.Index()] = float64(i%8) / 7
		tp.Rates[scene.Sidewalk.Index()] = float64((i+3)%8) / 7
		tp.Rates[scene.Streetlight.Index()] = float64((i+5)%8) / 7
		tracts = append(tracts, tp)
	}
	m := DefaultObesityModel(2)
	outcomes, err := m.Generate(tracts)
	if err != nil {
		t.Fatal(err)
	}
	assocs, err := Associations(tracts, outcomes)
	if err != nil {
		t.Fatalf("Associations: %v", err)
	}
	byInd := make(map[scene.Indicator]float64)
	for _, a := range assocs {
		byInd[a.Indicator] = a.Pearson
		if a.N != len(tracts) {
			t.Errorf("%v N = %d", a.Indicator, a.N)
		}
	}
	if byInd[scene.Powerline] <= 0 {
		t.Errorf("powerline association = %f, want positive", byInd[scene.Powerline])
	}
	if byInd[scene.Sidewalk] >= 0 {
		t.Errorf("sidewalk association = %f, want negative", byInd[scene.Sidewalk])
	}
}

func TestAssociationsValidation(t *testing.T) {
	if _, err := Associations([]TractProfile{{TractID: "a"}}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Associations([]TractProfile{{TractID: "a"}}, []Outcome{{TractID: "b"}}); err == nil {
		t.Error("unmatched tract accepted")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := pearson(xs, xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %f", got)
	}
	neg := []float64{4, 3, 2, 1}
	if got := pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %f", got)
	}
	flat := []float64{2, 2, 2, 2}
	if got := pearson(xs, flat); got != 0 {
		t.Errorf("degenerate correlation = %f", got)
	}
	if got := pearson([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("n=1 correlation = %f", got)
	}
}

func TestFitRegressionRecoversCoefficients(t *testing.T) {
	// Outcomes generated by a noiseless model must be recovered almost
	// exactly by OLS.
	m := DefaultObesityModel(3)
	m.NoiseSD = 0
	var tracts []TractProfile
	for i := 0; i < 60; i++ {
		var tp TractProfile
		tp.TractID = "t" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		tp.Locations = 4
		for k := 0; k < scene.NumIndicators; k++ {
			tp.Rates[k] = float64((i*7+k*13)%11) / 10
		}
		tracts = append(tracts, tp)
	}
	outcomes, err := m.Generate(tracts)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitRegression(tracts, outcomes)
	if err != nil {
		t.Fatalf("FitRegression: %v", err)
	}
	// The generator is logistic, OLS is linear; signs and relative
	// magnitude must still recover, and R2 should be high on this range.
	if fit.Coef[scene.Powerline.Index()] <= 0 {
		t.Errorf("powerline coefficient = %f, want positive", fit.Coef[scene.Powerline.Index()])
	}
	if fit.Coef[scene.Sidewalk.Index()] >= 0 {
		t.Errorf("sidewalk coefficient = %f, want negative", fit.Coef[scene.Sidewalk.Index()])
	}
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %f on noiseless data", fit.R2)
	}
	if fit.N != len(tracts) {
		t.Errorf("N = %d", fit.N)
	}
	// Predictions track outcomes.
	var maxErr float64
	byID := make(map[string]float64)
	for _, o := range outcomes {
		byID[o.TractID] = o.Prevalence
	}
	for _, tp := range tracts {
		pred := fit.Intercept
		for k, rate := range tp.Rates {
			pred += fit.Coef[k] * rate
		}
		if e := math.Abs(pred - byID[tp.TractID]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.1 {
		t.Errorf("max prediction error = %f", maxErr)
	}
}

func TestFitRegressionValidation(t *testing.T) {
	if _, err := FitRegression(nil, nil); err == nil {
		t.Error("empty inputs accepted")
	}
	few := make([]TractProfile, 5)
	out := make([]Outcome, 5)
	for i := range few {
		few[i].TractID = string(rune('a' + i))
		out[i].TractID = few[i].TractID
	}
	if _, err := FitRegression(few, out); err == nil {
		t.Error("underdetermined system accepted")
	}
	// Mismatched tract id.
	many := make([]TractProfile, 10)
	outs := make([]Outcome, 10)
	for i := range many {
		many[i].TractID = string(rune('a' + i))
		outs[i].TractID = "zz"
	}
	if _, err := FitRegression(many, outs); err == nil {
		t.Error("unmatched outcomes accepted")
	}
}
