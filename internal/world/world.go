// Package world procedurally generates distinct county morphology
// families — planned grids, radial hub-and-spoke towns, organic sprawl,
// and coastal strips — as layout strategies over the geo package's
// network generator. Each family shapes three things at once: the road
// topology (where polylines go), the urbanicity gradient along them
// (which drives every downstream indicator prior), and the scene
// generator's co-occurrence priors (what a streetlight or powerline
// implies about the rest of the frame in that kind of place). A world is
// deterministic in its seed: the same Config always produces
// byte-identical counties, which is what lets the robustness experiment
// matrix diff its run artifacts byte for byte.
package world

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nbhd/internal/geo"
	"nbhd/internal/scene"
)

// Config parameterizes world generation.
type Config struct {
	// Family names the morphology family (see Names).
	Family string
	// Seed drives all generation; the rural county uses Seed, the urban
	// county Seed+1 (the StudyCounties convention).
	Seed int64
	// RuralRoads and UrbanRoads override the family's road budgets; zero
	// keeps the defaults (24 rural, 32 urban — the legacy study scale).
	RuralRoads, UrbanRoads int
	// WaterFraction overrides the coastal family's water coverage in
	// (0,1); zero keeps the default. Fractions that drown the whole
	// extent make Generate fail — there is no land to put roads on.
	// Ignored by the land-locked families.
	WaterFraction float64
}

// World is one generated morphology: the two study counties plus the
// family's scene priors.
type World struct {
	// Family is the morphology family name.
	Family string
	// Rural and Urban are the generated counties.
	Rural, Urban *geo.County
	// Priors are the family's co-occurrence-conditioned scene priors.
	Priors scene.Priors
}

// family bundles one morphology's layout strategy, geography, and
// priors. Each family anchors its counties at origins distinct from
// every other family (and from the legacy StudyCounties), so frames
// from different morphologies never collide in a shared content-
// addressed frame store.
type family struct {
	ruralOrigin            geo.Coordinate
	urbanOrigin            geo.Coordinate
	ruralRoads, urbanRoads int
	layout                 func(cfg Config) geo.Layout
	priors                 func() scene.Priors
}

// Default county extents, matching the legacy study scale so the 50-foot
// segmentation yields a sampling frame comfortably larger than the
// corpus.
const (
	ruralExtentFeet = 26400 // ~5 miles square
	urbanExtentFeet = 21120 // ~4 miles square
)

// CoastalDefaultWaterFraction is the coastal family's default share of
// the extent covered by water.
const CoastalDefaultWaterFraction = 0.35

var families = map[string]*family{
	"grid": {
		ruralOrigin: geo.Coordinate{Lat: 35.10, Lng: -80.25},
		urbanOrigin: geo.Coordinate{Lat: 35.45, Lng: -80.02},
		ruralRoads:  24,
		urbanRoads:  32,
		layout:      gridLayout,
		priors:      gridPriors,
	},
	"radial": {
		ruralOrigin: geo.Coordinate{Lat: 36.10, Lng: -77.65},
		urbanOrigin: geo.Coordinate{Lat: 36.32, Lng: -77.42},
		ruralRoads:  24,
		urbanRoads:  32,
		layout:      radialLayout,
		priors:      radialPriors,
	},
	"organic": {
		ruralOrigin: geo.Coordinate{Lat: 34.85, Lng: -77.40},
		urbanOrigin: geo.Coordinate{Lat: 35.12, Lng: -77.18},
		ruralRoads:  24,
		urbanRoads:  32,
		layout:      organicLayout,
		priors:      organicPriors,
	},
	"coastal": {
		ruralOrigin: geo.Coordinate{Lat: 34.15, Lng: -77.98},
		urbanOrigin: geo.Coordinate{Lat: 34.42, Lng: -77.72},
		ruralRoads:  24,
		urbanRoads:  32,
		layout:      coastalLayout,
		priors:      coastalPriors,
	},
}

// Names lists the morphology families, sorted.
func Names() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Valid reports whether name is a registered morphology family.
func Valid(name string) bool {
	_, ok := families[name]
	return ok
}

// Generate builds the named morphology's two study counties and priors,
// deterministic in the seed.
func Generate(cfg Config) (*World, error) {
	f, ok := families[cfg.Family]
	if !ok {
		return nil, fmt.Errorf("world: unknown morphology family %q (have %v)", cfg.Family, Names())
	}
	ruralRoads, urbanRoads := f.ruralRoads, f.urbanRoads
	if cfg.RuralRoads != 0 {
		ruralRoads = cfg.RuralRoads
	}
	if cfg.UrbanRoads != 0 {
		urbanRoads = cfg.UrbanRoads
	}
	layout := f.layout(cfg)
	rural, err := geo.GenerateNetwork(geo.NetworkConfig{
		Name:       cfg.Family + "-rural",
		Setting:    geo.SettingRural,
		Origin:     f.ruralOrigin,
		ExtentFeet: ruralExtentFeet,
		RoadCount:  ruralRoads,
		Seed:       cfg.Seed,
	}, layout)
	if err != nil {
		return nil, fmt.Errorf("world: %s: %w", cfg.Family, err)
	}
	urban, err := geo.GenerateNetwork(geo.NetworkConfig{
		Name:       cfg.Family + "-urban",
		Setting:    geo.SettingUrban,
		Origin:     f.urbanOrigin,
		ExtentFeet: urbanExtentFeet,
		RoadCount:  urbanRoads,
		Seed:       cfg.Seed + 1,
	}, layout)
	if err != nil {
		return nil, fmt.Errorf("world: %s: %w", cfg.Family, err)
	}
	return &World{Family: cfg.Family, Rural: rural, Urban: urban, Priors: f.priors()}, nil
}

// clamp01 clamps to [0,1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// clampRange clamps v to [lo,hi].
func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// gridLayout lays axis-aligned roads alternating east-west and
// north-south across the extent. Cross positions are evenly spaced with
// a small per-road jitter that is constant along the road, so every
// sample point's bearing is exactly one of the four cardinal headings —
// the quantization the grid distribution test pins. Urbanicity peaks on
// the central roads and fades toward the edges.
func gridLayout(Config) geo.Layout {
	return func(rng *rand.Rand, cfg *geo.NetworkConfig) ([]geo.RoadPlan, error) {
		uLo, uHi := geo.UrbanicityRange(cfg.Setting)
		e := cfg.ExtentFeet
		nEW := (cfg.RoadCount + 1) / 2
		nNS := cfg.RoadCount / 2
		plans := make([]geo.RoadPlan, 0, cfg.RoadCount)
		for i := 0; i < cfg.RoadCount; i++ {
			eastWest := i%2 == 0
			k, n := i/2, nEW
			if !eastWest {
				n = nNS
			}
			cross := float64(k+1) / float64(n+1) * e
			cross += (rng.Float64() - 0.5) * 0.03 * e
			// Central roads are the urban spine; edge roads trail off.
			centrality := 1 - math.Abs(cross-e/2)/(e/2)
			u := uLo + (uHi-uLo)*centrality + (rng.Float64()-0.5)*0.06
			points := make([]geo.Coordinate, 0, 3)
			for _, t := range []float64{0.02, 0.5, 0.98} {
				along := t * e
				if eastWest {
					points = append(points, geo.OffsetFeet(cfg.Origin, cross, along))
				} else {
					points = append(points, geo.OffsetFeet(cfg.Origin, along, cross))
				}
			}
			plans = append(plans, geo.RoadPlan{Points: points, Urbanicity: clampRange(u, uLo, uHi)})
		}
		return plans, nil
	}
}

// radialLayout grows a hub-and-spoke town: straight spokes radiating
// from the extent's center plus concentric ring roads. Urbanicity decays
// with radius — the hub is the dense core.
func radialLayout(Config) geo.Layout {
	return func(rng *rand.Rand, cfg *geo.NetworkConfig) ([]geo.RoadPlan, error) {
		uLo, uHi := geo.UrbanicityRange(cfg.Setting)
		e := cfg.ExtentFeet
		center := e / 2
		maxR := 0.46 * e
		spokes := cfg.RoadCount/2 + 1
		rings := cfg.RoadCount - spokes
		rotation := rng.Float64() * 2 * math.Pi
		plans := make([]geo.RoadPlan, 0, cfg.RoadCount)
		for k := 0; k < spokes; k++ {
			theta := rotation + 2*math.Pi*float64(k)/float64(spokes)
			points := make([]geo.Coordinate, 0, 3)
			for _, rf := range []float64{0.05, 0.5, 1.0} {
				r := rf * maxR
				points = append(points, geo.OffsetFeet(cfg.Origin, center+r*math.Cos(theta), center+r*math.Sin(theta)))
			}
			// A spoke spans the whole gradient; score it at mid-radius.
			u := uHi - (uHi-uLo)*0.5 + (rng.Float64()-0.5)*0.08
			plans = append(plans, geo.RoadPlan{Points: points, Urbanicity: clampRange(u, uLo, uHi)})
		}
		const ringVerts = 20
		for j := 0; j < rings; j++ {
			r := float64(j+1) / float64(rings+1) * maxR
			points := make([]geo.Coordinate, 0, ringVerts+1)
			for v := 0; v <= ringVerts; v++ {
				theta := rotation + 2*math.Pi*float64(v)/float64(ringVerts)
				points = append(points, geo.OffsetFeet(cfg.Origin, center+r*math.Cos(theta), center+r*math.Sin(theta)))
			}
			u := uHi - (uHi-uLo)*(r/maxR) + (rng.Float64()-0.5)*0.06
			plans = append(plans, geo.RoadPlan{Points: points, Urbanicity: clampRange(u, uLo, uHi)})
		}
		return plans, nil
	}
}

// organicLayout grows sprawl by bounded-turn random walk: each road
// starts somewhere in the extent and meanders with limited curvature,
// reflecting off the extent's edges. Urbanicity decays exponentially
// with distance from a seeded town center.
func organicLayout(Config) geo.Layout {
	return func(rng *rand.Rand, cfg *geo.NetworkConfig) ([]geo.RoadPlan, error) {
		uLo, uHi := geo.UrbanicityRange(cfg.Setting)
		e := cfg.ExtentFeet
		townN := (0.3 + rng.Float64()*0.4) * e
		townE := (0.3 + rng.Float64()*0.4) * e
		lo, hi := 0.02*e, 0.98*e
		reflect := func(v float64) float64 {
			if v < lo {
				v = lo + (lo - v)
			}
			if v > hi {
				v = hi - (v - hi)
			}
			return clampRange(v, lo, hi)
		}
		plans := make([]geo.RoadPlan, 0, cfg.RoadCount)
		for i := 0; i < cfg.RoadCount; i++ {
			n := (0.05 + rng.Float64()*0.9) * e
			east := (0.05 + rng.Float64()*0.9) * e
			heading := rng.Float64() * 2 * math.Pi
			verts := 8 + rng.Intn(5)
			step := e / 16
			points := make([]geo.Coordinate, 0, verts)
			var sumN, sumE float64
			for v := 0; v < verts; v++ {
				points = append(points, geo.OffsetFeet(cfg.Origin, n, east))
				sumN += n
				sumE += east
				heading += (rng.Float64() - 0.5) * 0.9
				n = reflect(n + step*math.Cos(heading))
				east = reflect(east + step*math.Sin(heading))
			}
			midN, midE := sumN/float64(verts), sumE/float64(verts)
			d := math.Hypot(midN-townN, midE-townE)
			u := uLo + (uHi-uLo)*math.Exp(-d/(0.3*e)) + (rng.Float64()-0.5)*0.08
			plans = append(plans, geo.RoadPlan{Points: points, Urbanicity: clampRange(u, uLo, uHi)})
		}
		return plans, nil
	}
}

// Coastal geometry: the coastline runs roughly north-south at
// eastFeet = (1-waterFraction)*extent, modulated by a seeded sinusoid of
// amplitude coastalAmplitude*extent. Everything east of it is water.
const (
	coastalAmplitude = 0.08
	coastalMargin    = 0.03
)

// coastalLayout lays shore-parallel roads that follow the coastline's
// sinusoid at increasing depths inland, plus straight east-west
// connectors running from the back of the strip to the shore. Every
// point stays strictly on land; urbanicity is highest at the shore and
// decays inland. A water fraction that leaves no usable land corridor is
// an error — an all-water extent has nowhere to put roads.
func coastalLayout(wcfg Config) geo.Layout {
	return func(rng *rand.Rand, cfg *geo.NetworkConfig) ([]geo.RoadPlan, error) {
		wf := wcfg.WaterFraction
		if wf == 0 {
			wf = CoastalDefaultWaterFraction
		}
		if wf < 0 || wf >= 1 {
			return nil, fmt.Errorf("world: coastal water fraction must be in (0,1), got %g", wf)
		}
		uLo, uHi := geo.UrbanicityRange(cfg.Setting)
		e := cfg.ExtentFeet
		margin := coastalMargin * e
		base := (1 - wf) * e
		amp := coastalAmplitude * e
		// The usable land corridor is the strip west of the coastline's
		// western extreme, minus the shore margin.
		land := base - amp - margin
		if land <= 0.05*e {
			return nil, fmt.Errorf("world: coastal water fraction %.2f leaves no land in a %.0fft extent (all water)", wf, e)
		}
		phase := rng.Float64() * 2 * math.Pi
		coast := func(northFeet float64) float64 {
			return base + amp*math.Sin(2*math.Pi*northFeet/e+phase)
		}
		shore := (cfg.RoadCount*3 + 4) / 5
		connectors := cfg.RoadCount - shore
		plans := make([]geo.RoadPlan, 0, cfg.RoadCount)
		const shoreVerts = 16
		for j := 0; j < shore; j++ {
			depth := float64(j+1) / float64(shore+1) // 0 = at the shore, 1 = back of the strip
			points := make([]geo.Coordinate, 0, shoreVerts+1)
			for v := 0; v <= shoreVerts; v++ {
				n := (0.02 + 0.96*float64(v)/float64(shoreVerts)) * e
				east := coast(n) - margin - depth*(land-margin)
				points = append(points, geo.OffsetFeet(cfg.Origin, n, east))
			}
			u := uHi - (uHi-uLo)*depth + (rng.Float64()-0.5)*0.06
			plans = append(plans, geo.RoadPlan{Points: points, Urbanicity: clampRange(u, uLo, uHi)})
		}
		for k := 0; k < connectors; k++ {
			n := (float64(k+1)/float64(connectors+1)*0.92 + 0.04 + (rng.Float64()-0.5)*0.02) * e
			start, end := margin, coast(n)-margin
			points := []geo.Coordinate{
				geo.OffsetFeet(cfg.Origin, n, start),
				geo.OffsetFeet(cfg.Origin, n, (start+end)/2),
				geo.OffsetFeet(cfg.Origin, n, end),
			}
			u := (uLo+uHi)/2 + (rng.Float64()-0.5)*0.08
			plans = append(plans, geo.RoadPlan{Points: points, Urbanicity: clampRange(u, uLo, uHi)})
		}
		return plans, nil
	}
}

// Family priors: each morphology conditions the scene generator's
// co-occurrence structure. The shapes stay inside the calibrated default
// envelope (scene.DefaultPriors) but shift which indicators travel
// together: a grid city buries its powerlines and pours sidewalks, a
// radial hub stacks apartments at the core, sprawl strings powerlines
// along every road and skips the sidewalks, a coastal strip densifies
// right at the shore.

func gridPriors() scene.Priors {
	return scene.Priors{
		Streetlight:       func(u float64) float64 { return clamp01(0.05 + 0.31*u) },
		Sidewalk:          func(u float64) float64 { return clamp01(0.10 + 0.60*u) },
		Powerline:         func(u float64) float64 { return clamp01(0.25 - 0.18*u) },
		Apartment:         func(u float64) float64 { return clamp01(0.45 * (u - 0.25)) },
		RoadVisibleAcross: 0.45,
		SecondStreetlight: 0.25,
		SecondSidewalk:    0.30,
	}
}

func radialPriors() scene.Priors {
	return scene.Priors{
		Streetlight:       func(u float64) float64 { return clamp01(0.02 + 0.30*u) },
		Sidewalk:          func(u float64) float64 { return clamp01(0.05 + 0.50*u) },
		Powerline:         func(u float64) float64 { return clamp01(0.35 - 0.25*u) },
		Apartment:         func(u float64) float64 { return clamp01(0.55 * (u - 0.20)) },
		RoadVisibleAcross: 0.45,
		SecondStreetlight: 0.22,
		SecondSidewalk:    0.20,
	}
}

func organicPriors() scene.Priors {
	return scene.Priors{
		Streetlight:       func(u float64) float64 { return clamp01(0.01 + 0.20*u) },
		Sidewalk:          func(u float64) float64 { return clamp01(0.02 + 0.30*u) },
		Powerline:         func(u float64) float64 { return clamp01(0.55 - 0.25*u) },
		Apartment:         func(u float64) float64 { return clamp01(0.30 * (u - 0.40)) },
		RoadVisibleAcross: 0.45,
		SecondStreetlight: 0.12,
		SecondSidewalk:    0.08,
	}
}

func coastalPriors() scene.Priors {
	return scene.Priors{
		Streetlight:       func(u float64) float64 { return clamp01(0.02 + 0.25*u) },
		Sidewalk:          func(u float64) float64 { return clamp01(0.06 + 0.55*u) },
		Powerline:         func(u float64) float64 { return clamp01(0.30 - 0.22*u) },
		Apartment:         func(u float64) float64 { return clamp01(0.50 * (u - 0.25)) },
		RoadVisibleAcross: 0.50,
		SecondStreetlight: 0.18,
		SecondSidewalk:    0.22,
	}
}
