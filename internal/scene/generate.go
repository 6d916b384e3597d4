package scene

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"nbhd/internal/geo"
	"nbhd/internal/randsrc"
)

// Priors holds the urbanicity-conditioned presence probabilities used by
// the generator. Each entry maps urbanicity u in [0,1] to a probability;
// the defaults are calibrated so the paper's 1,200-image study sample
// reproduces the §IV-A object counts within a few percent.
type Priors struct {
	// Streetlight presence probability at urbanicity u.
	Streetlight func(u float64) float64
	// Sidewalk presence probability at urbanicity u.
	Sidewalk func(u float64) float64
	// Powerline presence probability at urbanicity u.
	Powerline func(u float64) float64
	// Apartment presence probability at urbanicity u.
	Apartment func(u float64) float64
	// RoadVisibleAcross is the probability a partial road strip is in
	// frame when the camera faces across the road (along-road views
	// always see the road).
	RoadVisibleAcross float64
	// SecondStreetlight is the probability a second streetlight appears
	// given one is present (the paper's counts imply >1 object per image
	// for some classes).
	SecondStreetlight float64
	// SecondSidewalk is the probability both sides of the road have
	// sidewalks in an along-road view.
	SecondSidewalk float64
}

// DefaultPriors returns the calibrated study priors.
func DefaultPriors() Priors {
	return Priors{
		Streetlight:       func(u float64) float64 { return clampP(0.01 + 0.27*u) },
		Sidewalk:          func(u float64) float64 { return clampP(0.04 + 0.56*u) },
		Powerline:         func(u float64) float64 { return clampP(0.40 - 0.30*u) },
		Apartment:         func(u float64) float64 { return clampP(0.40 * (u - 0.30)) },
		RoadVisibleAcross: 0.45,
		SecondStreetlight: 0.20,
		SecondSidewalk:    0.18,
	}
}

func clampP(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// GenConfig configures scene generation.
type GenConfig struct {
	// Priors are the presence probabilities; zero value means defaults.
	Priors *Priors
}

// Generator produces deterministic scenes from geographic sample points.
// The zero value is not usable; construct with NewGenerator.
type Generator struct {
	priors Priors
}

// NewGenerator builds a Generator. A nil config uses default priors.
func NewGenerator(cfg *GenConfig) *Generator {
	priors := DefaultPriors()
	if cfg != nil && cfg.Priors != nil {
		priors = *cfg.Priors
	}
	return &Generator{priors: priors}
}

// Generate builds the ground-truth scene for one (sample point, heading)
// pair. Output is deterministic in (point, heading, seed).
func (g *Generator) Generate(id string, point geo.SamplePoint, heading geo.Heading, seed int64) (*Scene, error) {
	if id == "" {
		return nil, fmt.Errorf("scene: generate needs a non-empty id")
	}
	rng := rand.New(randsrc.New(mixSeed(seed, point, heading)))
	u := point.Urbanicity

	s := &Scene{
		ID:                id,
		Point:             point,
		Heading:           heading,
		View:              viewKind(point.BearingDeg, heading),
		SkyTone:           0.55 + rng.Float64()*0.45,
		VegetationDensity: clampP(1 - u + (rng.Float64()-0.5)*0.3),
		Seed:              seed,
	}

	roadVisible := s.View == ViewAlongRoad || rng.Float64() < g.priors.RoadVisibleAcross
	if roadVisible {
		s.Objects = append(s.Objects, g.placeRoad(rng, point.RoadClass, s.View))
	}

	sidewalkP := g.priors.Sidewalk(u)
	if rng.Float64() < sidewalkP {
		s.Objects = append(s.Objects, g.placeSidewalk(rng, s.View, false))
		if s.View == ViewAlongRoad && rng.Float64() < g.priors.SecondSidewalk {
			s.Objects = append(s.Objects, g.placeSidewalk(rng, s.View, true))
		}
	}

	if rng.Float64() < g.priors.Streetlight(u) {
		s.Objects = append(s.Objects, g.placeStreetlight(rng, false))
		if rng.Float64() < g.priors.SecondStreetlight {
			s.Objects = append(s.Objects, g.placeStreetlight(rng, true))
		}
	}

	if rng.Float64() < g.priors.Powerline(u) {
		s.Objects = append(s.Objects, g.placePowerline(rng))
	}

	if rng.Float64() < g.priors.Apartment(u) {
		s.Objects = append(s.Objects, g.placeApartment(rng))
	}

	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scene: generated scene invalid: %w", err)
	}
	return s, nil
}

// mixSeed folds the sample point identity and heading into the base seed
// so each frame of a coordinate gets an independent but reproducible
// stream.
func mixSeed(seed int64, point geo.SamplePoint, heading geo.Heading) int64 {
	h := uint64(seed)
	h = h*1099511628211 + uint64(point.RoadID)*2654435761
	h = h*1099511628211 + uint64(int64(point.MilepostFeet*10))
	h = h*1099511628211 + uint64(int(heading))
	return int64(h)
}

// viewKind classifies the camera orientation relative to the road: strictly
// within 45 degrees of the road axis (either direction) is an along-road
// view; the 45-degree diagonal itself counts as across-road.
func viewKind(roadBearingDeg float64, heading geo.Heading) ViewKind {
	diff := math.Mod(math.Abs(roadBearingDeg-float64(heading)), 180)
	if diff > 90 {
		diff = 180 - diff
	}
	if diff < 45 {
		return ViewAlongRoad
	}
	return ViewAcrossRoad
}

func (g *Generator) placeRoad(rng *rand.Rand, class geo.RoadClass, view ViewKind) Object {
	ind := SingleLaneRoad
	if class == geo.RoadMultiLane {
		ind = MultilaneRoad
	}
	var box Rect
	if view == ViewAlongRoad {
		// Full perspective view: trapezoid from the bottom edge to the
		// horizon. Multilane roads are wider.
		halfWidth := 0.28 + rng.Float64()*0.08
		if ind == MultilaneRoad {
			halfWidth = 0.38 + rng.Float64()*0.08
		}
		cx := 0.5 + (rng.Float64()-0.5)*0.08
		box = Rect{X0: cx - halfWidth, Y0: 0.46, X1: cx + halfWidth, Y1: 1.0}
	} else {
		// Across view: a partial horizontal strip at the bottom.
		top := 0.70 + rng.Float64()*0.10
		box = Rect{X0: 0.0, Y0: top, X1: 1.0, Y1: 1.0}
	}
	return Object{Indicator: ind, BBox: box.Clamp(), StyleSeed: rng.Int63()}
}

func (g *Generator) placeSidewalk(rng *rand.Rand, view ViewKind, rightSide bool) Object {
	var box Rect
	if view == ViewAlongRoad {
		if rightSide {
			box = Rect{X0: 0.76, Y0: 0.52, X1: 0.97, Y1: 0.97}
		} else {
			box = Rect{X0: 0.03, Y0: 0.52, X1: 0.24, Y1: 0.97}
		}
		box.X0 += (rng.Float64() - 0.5) * 0.04
		box.X1 += (rng.Float64() - 0.5) * 0.04
	} else {
		// Across view: a horizontal band between road strip and horizon.
		mid := 0.60 + rng.Float64()*0.06
		box = Rect{X0: 0.0, Y0: mid, X1: 1.0, Y1: mid + 0.10}
	}
	return Object{Indicator: Sidewalk, BBox: box.Clamp(), StyleSeed: rng.Int63()}
}

func (g *Generator) placeStreetlight(rng *rand.Rand, second bool) Object {
	x := 0.10 + rng.Float64()*0.15
	if second {
		x = 0.72 + rng.Float64()*0.15
	}
	top := 0.14 + rng.Float64()*0.08
	box := Rect{X0: x, Y0: top, X1: x + 0.09, Y1: 0.62}
	return Object{Indicator: Streetlight, BBox: box.Clamp(), StyleSeed: rng.Int63()}
}

func (g *Generator) placePowerline(rng *rand.Rand) Object {
	top := 0.03 + rng.Float64()*0.06
	bottom := 0.30 + rng.Float64()*0.10
	box := Rect{X0: 0.0, Y0: top, X1: 1.0, Y1: bottom}
	return Object{Indicator: Powerline, BBox: box.Clamp(), StyleSeed: rng.Int63()}
}

func (g *Generator) placeApartment(rng *rand.Rand) Object {
	x := 0.52 + rng.Float64()*0.10
	w := 0.30 + rng.Float64()*0.12
	top := 0.18 + rng.Float64()*0.08
	box := Rect{X0: x, Y0: top, X1: x + w, Y1: 0.58}
	return Object{Indicator: Apartment, BBox: box.Clamp(), StyleSeed: rng.Int63()}
}

// FrameID builds the canonical scene id for a study frame:
// "<county>-<index>-<heading letter>", e.g. "robeson-0042-e".
func FrameID(county string, index int, heading geo.Heading) string {
	letter := "n"
	switch heading {
	case geo.HeadingEast:
		letter = "e"
	case geo.HeadingSouth:
		letter = "s"
	case geo.HeadingWest:
		letter = "w"
	}
	return fmt.Sprintf("%s-%04d-%s", strings.ToLower(county), index, letter)
}
