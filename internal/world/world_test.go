package world

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nbhd/internal/geo"
)

func TestNamesSortedAndValid(t *testing.T) {
	names := Names()
	want := []string{"coastal", "grid", "organic", "radial"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
		if !Valid(n) {
			t.Errorf("Valid(%q) = false, want true", n)
		}
	}
	if Valid("suburbia") {
		t.Error("Valid(suburbia) = true, want false")
	}
}

func TestUnknownFamilyError(t *testing.T) {
	_, err := Generate(Config{Family: "suburbia", Seed: 1})
	if err == nil {
		t.Fatal("Generate with unknown family succeeded")
	}
	if !strings.Contains(err.Error(), "suburbia") || !strings.Contains(err.Error(), "coastal") {
		t.Errorf("error should name the bad family and list valid ones: %v", err)
	}
}

// TestSameSeedByteIdentical pins the core determinism contract: the same
// Config always produces byte-identical counties. The robustness matrix
// relies on this to diff its run artifacts byte for byte.
func TestSameSeedByteIdentical(t *testing.T) {
	for _, fam := range Names() {
		a, err := Generate(Config{Family: fam, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		b, err := Generate(Config{Family: fam, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		aj, err := json.Marshal([]*geo.County{a.Rural, a.Urban})
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal([]*geo.County{b.Rural, b.Urban})
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Errorf("%s: same seed produced different worlds", fam)
		}
		c, err := Generate(Config{Family: fam, Seed: 8})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		cj, err := json.Marshal([]*geo.County{c.Rural, c.Urban})
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) == string(cj) {
			t.Errorf("%s: different seeds produced identical worlds", fam)
		}
	}
}

func TestFamiliesProduceValidCounties(t *testing.T) {
	for _, fam := range Names() {
		w, err := Generate(Config{Family: fam, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if w.Family != fam {
			t.Errorf("%s: Family = %q", fam, w.Family)
		}
		if w.Rural.Setting != geo.SettingRural || w.Urban.Setting != geo.SettingUrban {
			t.Errorf("%s: settings %v/%v", fam, w.Rural.Setting, w.Urban.Setting)
		}
		if len(w.Rural.Roads) != 24 || len(w.Urban.Roads) != 32 {
			t.Errorf("%s: default road budgets %d/%d, want 24/32", fam, len(w.Rural.Roads), len(w.Urban.Roads))
		}
		if err := w.Rural.Validate(); err != nil {
			t.Errorf("%s rural: %v", fam, err)
		}
		if err := w.Urban.Validate(); err != nil {
			t.Errorf("%s urban: %v", fam, err)
		}
		if w.Priors.Streetlight == nil || w.Priors.Sidewalk == nil {
			t.Errorf("%s: priors missing indicator curves", fam)
		}
	}
}

func TestRoadBudgetOverrides(t *testing.T) {
	w, err := Generate(Config{Family: "grid", Seed: 1, RuralRoads: 10, UrbanRoads: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Rural.Roads) != 10 || len(w.Urban.Roads) != 14 {
		t.Errorf("road budgets %d/%d, want 10/14", len(w.Rural.Roads), len(w.Urban.Roads))
	}
}

func TestDistinctOriginsAcrossFamilies(t *testing.T) {
	type origin struct{ lat, lng float64 }
	seen := map[origin]string{
		// The legacy StudyCounties origins — procedural families must not
		// collide with them either, or frames would alias in the store.
		{34.62, -79.12}: "legacy-rural",
		{35.99, -78.90}: "legacy-urban",
	}
	for _, fam := range Names() {
		w, err := Generate(Config{Family: fam, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*geo.County{w.Rural, w.Urban} {
			o := origin{c.Origin.Lat, c.Origin.Lng}
			if prev, ok := seen[o]; ok {
				t.Errorf("%s county %s shares origin %v with %s", fam, c.Name, o, prev)
			}
			seen[o] = fam + "-" + c.Name
		}
	}
}

// TestGridBearingQuantization pins the grid family's signature
// distribution property: every sample point's bearing is exactly one of
// the four cardinal headings, because east-west roads hold northFeet
// constant and north-south roads hold eastFeet constant.
func TestGridBearingQuantization(t *testing.T) {
	w, err := Generate(Config{Family: "grid", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[float64]int)
	for _, c := range []*geo.County{w.Rural, w.Urban} {
		pts, err := c.Segment(50)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			t.Fatalf("%s: no sample points", c.Name)
		}
		for _, p := range pts {
			nearest := math.Round(p.BearingDeg/90) * 90
			if math.Mod(nearest, 360) == 360 {
				nearest = 0
			}
			if diff := math.Abs(p.BearingDeg - nearest); diff > 1e-6 {
				t.Fatalf("%s road %d: bearing %.9f is %.2e off a cardinal heading",
					c.Name, p.RoadID, p.BearingDeg, diff)
			}
			hit[math.Mod(nearest, 360)]++
		}
	}
	// Both axes must actually appear: a grid that degenerated to one
	// orientation would pass the per-point check vacuously.
	if hit[90] == 0 && hit[270] == 0 {
		t.Error("no east-west bearings sampled")
	}
	if hit[0] == 0 && hit[180] == 0 {
		t.Error("no north-south bearings sampled")
	}
}

// eastFeetOf inverts geo.OffsetFeet's east displacement relative to the
// county origin.
func eastFeetOf(c *geo.County, p geo.Coordinate) float64 {
	return (p.Lng - c.Origin.Lng) * geo.FeetPerDegreeLat * math.Cos(c.Origin.Lat*math.Pi/180)
}

// northFeetOf inverts geo.OffsetFeet's north displacement relative to
// the county origin.
func northFeetOf(c *geo.County, p geo.Coordinate) float64 {
	return (p.Lat - c.Origin.Lat) * geo.FeetPerDegreeLat
}

// TestCoastalLandWaterBounds asserts every coastal road vertex stays
// strictly on the land side of the coastline — reconstructed from the
// seed, since the sinusoid's phase is the layout's first random draw —
// and that the whole network stays inside the coastline's envelope.
func TestCoastalLandWaterBounds(t *testing.T) {
	const seed = 2
	w, err := Generate(Config{Family: "coastal", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		county  *geo.County
		extent  float64
		netSeed int64
	}{{w.Rural, ruralExtentFeet, seed}, {w.Urban, urbanExtentFeet, seed + 1}} {
		// The phase is the first draw from the network's seeded stream —
		// exactly how coastalLayout consumes it.
		phase := rand.New(rand.NewSource(tc.netSeed)).Float64() * 2 * math.Pi
		base := (1 - CoastalDefaultWaterFraction) * tc.extent
		amp := coastalAmplitude * tc.extent
		minCoast, maxCoast := base-amp, base+amp
		if maxCoast >= tc.extent {
			t.Errorf("coastline extreme %g exceeds extent %g", maxCoast, tc.extent)
		}
		coast := func(n float64) float64 {
			return base + amp*math.Sin(2*math.Pi*n/tc.extent+phase)
		}
		var maxEast float64
		for _, r := range tc.county.Roads {
			for _, p := range r.Points {
				e, n := eastFeetOf(tc.county, p), northFeetOf(tc.county, p)
				if e > maxEast {
					maxEast = e
				}
				if waterline := coast(n); e >= waterline-1 {
					t.Fatalf("%s road %d: vertex %f ft east at %f ft north is in water (coastline %f ft)",
						tc.county.Name, r.ID, e, n, waterline)
				}
			}
		}
		if maxEast >= maxCoast {
			t.Errorf("%s: road reaches %f ft east, past the coastline's eastern extreme %f ft",
				tc.county.Name, maxEast, maxCoast)
		}
		if maxEast <= minCoast-0.5*tc.extent {
			t.Errorf("%s: network never approaches the shore (max east %f ft)", tc.county.Name, maxEast)
		}
	}
}

func TestCoastalWaterFractionOverride(t *testing.T) {
	lowW, err := Generate(Config{Family: "coastal", Seed: 2, WaterFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	highW, err := Generate(Config{Family: "coastal", Seed: 2, WaterFraction: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(c *geo.County) float64 {
		var m float64
		for _, r := range c.Roads {
			for _, p := range r.Points {
				if e := eastFeetOf(c, p); e > m {
					m = e
				}
			}
		}
		return m
	}
	if maxOf(lowW.Rural) <= maxOf(highW.Rural) {
		t.Errorf("less water should push roads farther east: 0.1 -> %f, 0.6 -> %f",
			maxOf(lowW.Rural), maxOf(highW.Rural))
	}
}

// TestCoastalAllWater pins the degenerate-input contract: a water
// fraction that drowns the whole extent is an error, not a zero-road
// county.
func TestCoastalAllWater(t *testing.T) {
	for _, wf := range []float64{0.97, 0.999} {
		_, err := Generate(Config{Family: "coastal", Seed: 1, WaterFraction: wf})
		if err == nil {
			t.Fatalf("WaterFraction %g: Generate succeeded, want all-water error", wf)
		}
		if !strings.Contains(err.Error(), "all water") {
			t.Errorf("WaterFraction %g: error %q should mention all water", wf, err)
		}
	}
	for _, wf := range []float64{-0.2, 1.5} {
		_, err := Generate(Config{Family: "coastal", Seed: 1, WaterFraction: wf})
		if err == nil {
			t.Fatalf("WaterFraction %g: Generate succeeded, want range error", wf)
		}
	}
}

func TestPriorsStayInUnitInterval(t *testing.T) {
	for _, fam := range Names() {
		pr := families[fam].priors()
		for u := 0.0; u <= 1.0; u += 0.125 {
			for name, f := range map[string]func(float64) float64{
				"streetlight": pr.Streetlight,
				"sidewalk":    pr.Sidewalk,
				"powerline":   pr.Powerline,
				"apartment":   pr.Apartment,
			} {
				if v := f(u); v < 0 || v > 1 {
					t.Errorf("%s %s(%g) = %g outside [0,1]", fam, name, u, v)
				}
			}
		}
	}
}
