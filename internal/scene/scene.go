// Package scene models the ground truth of a synthetic street-view image:
// which of the paper's six environmental indicators are present and where
// they sit in the frame. Scenes are generated from geographic sample
// points with urbanicity-conditioned co-occurrence priors calibrated so a
// 1,200-image study sample reproduces the paper's §IV-A label counts
// (streetlight 206, sidewalk 444, single-lane road 346, multilane road
// 505, powerline 301, apartment 125; 1,927 objects in total).
package scene

import (
	"fmt"

	"nbhd/internal/geo"
)

// Indicator enumerates the six environmental indicators the paper labels
// and detects.
type Indicator int

const (
	// Streetlight (SL).
	Streetlight Indicator = iota + 1
	// Sidewalk (SW).
	Sidewalk
	// SingleLaneRoad (SR): one lane per direction.
	SingleLaneRoad
	// MultilaneRoad (MR): more than one lane per direction.
	MultilaneRoad
	// Powerline (PL).
	Powerline
	// Apartment (AP).
	Apartment
)

// NumIndicators is the number of indicator classes.
const NumIndicators = 6

// Indicators returns all indicator classes in the paper's canonical order
// (SL, SW, SR, MR, PL, AP).
func Indicators() [NumIndicators]Indicator {
	return [NumIndicators]Indicator{Streetlight, Sidewalk, SingleLaneRoad, MultilaneRoad, Powerline, Apartment}
}

// String returns the indicator's full name as used in the paper.
func (i Indicator) String() string {
	switch i {
	case Streetlight:
		return "streetlight"
	case Sidewalk:
		return "sidewalk"
	case SingleLaneRoad:
		return "single-lane road"
	case MultilaneRoad:
		return "multilane road"
	case Powerline:
		return "powerline"
	case Apartment:
		return "apartment"
	default:
		return fmt.Sprintf("Indicator(%d)", int(i))
	}
}

// Abbrev returns the paper's two-letter abbreviation (SL, SW, SR, MR, PL,
// AP).
func (i Indicator) Abbrev() string {
	switch i {
	case Streetlight:
		return "SL"
	case Sidewalk:
		return "SW"
	case SingleLaneRoad:
		return "SR"
	case MultilaneRoad:
		return "MR"
	case Powerline:
		return "PL"
	case Apartment:
		return "AP"
	default:
		return fmt.Sprintf("I%d", int(i))
	}
}

// Index returns the zero-based position of the indicator in the canonical
// order, or -1 for an unknown indicator.
func (i Indicator) Index() int {
	if i < Streetlight || i > Apartment {
		return -1
	}
	return int(i) - 1
}

// ParseIndicator resolves a name or abbreviation (case-sensitive full
// names as returned by String, or the two-letter abbreviations).
func ParseIndicator(s string) (Indicator, error) {
	for _, ind := range Indicators() {
		if s == ind.String() || s == ind.Abbrev() {
			return ind, nil
		}
	}
	return 0, fmt.Errorf("scene: unknown indicator %q", s)
}

// Rect is an axis-aligned box in normalized image coordinates: x grows
// right, y grows down, all values in [0,1].
type Rect struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
}

// Valid reports whether the rect is non-degenerate and inside the unit
// square.
func (r Rect) Valid() bool {
	return r.X0 >= 0 && r.Y0 >= 0 && r.X1 <= 1 && r.Y1 <= 1 && r.X0 < r.X1 && r.Y0 < r.Y1
}

// Width returns X1-X0.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns Y1-Y0.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Area returns the rect's area (0 for inverted rects).
func (r Rect) Area() float64 {
	if r.X1 <= r.X0 || r.Y1 <= r.Y0 {
		return 0
	}
	return (r.X1 - r.X0) * (r.Y1 - r.Y0)
}

// Intersect returns the overlapping region of two rects (possibly
// degenerate).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: maxf(r.X0, o.X0),
		Y0: maxf(r.Y0, o.Y0),
		X1: minf(r.X1, o.X1),
		Y1: minf(r.Y1, o.Y1),
	}
	return out
}

// IoU returns the intersection-over-union of two rects in [0,1].
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter <= 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Center returns the rect's center point.
func (r Rect) Center() (x, y float64) {
	return (r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2
}

// Clamp returns the rect clipped to the unit square.
func (r Rect) Clamp() Rect {
	return Rect{
		X0: clamp01(r.X0),
		Y0: clamp01(r.Y0),
		X1: clamp01(r.X1),
		Y1: clamp01(r.Y1),
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Object is one ground-truth indicator instance placed in the frame.
type Object struct {
	// Indicator is the object's class.
	Indicator Indicator `json:"indicator"`
	// BBox is the object's normalized bounding box.
	BBox Rect `json:"bbox"`
	// StyleSeed varies the renderer's appearance of this object
	// (building color, pole shape, etc.) without changing its class.
	StyleSeed int64 `json:"style_seed"`
}

// ViewKind describes how the roadway appears in the frame, which drives
// both rendering and the LLMs' documented single-lane over-prediction on
// partial road views (§IV-C2).
type ViewKind int

const (
	// ViewAlongRoad faces up or down the road: full perspective view.
	ViewAlongRoad ViewKind = iota + 1
	// ViewAcrossRoad faces the roadside: only a partial road strip is
	// visible at the bottom of the frame.
	ViewAcrossRoad
)

// String names the view kind.
func (v ViewKind) String() string {
	switch v {
	case ViewAlongRoad:
		return "along-road"
	case ViewAcrossRoad:
		return "across-road"
	default:
		return fmt.Sprintf("ViewKind(%d)", int(v))
	}
}

// Scene is the full ground truth for one synthetic street-view frame.
type Scene struct {
	// ID uniquely names the scene within a dataset, e.g. "robeson-0042-e".
	ID string `json:"id"`
	// Point is the geographic sample point the frame was "captured" at.
	Point geo.SamplePoint `json:"point"`
	// Heading is the camera's compass direction.
	Heading geo.Heading `json:"heading"`
	// View is the road-relative camera orientation.
	View ViewKind `json:"view"`
	// Objects are the ground-truth indicator instances, in no particular
	// order.
	Objects []Object `json:"objects"`
	// SkyTone in [0,1] varies the sky brightness for rendering.
	SkyTone float64 `json:"sky_tone"`
	// VegetationDensity in [0,1] controls roadside clutter.
	VegetationDensity float64 `json:"vegetation_density"`
	// Seed reproduces the scene deterministically.
	Seed int64 `json:"seed"`
}

// Has reports whether any object of the given indicator is present.
func (s *Scene) Has(ind Indicator) bool {
	for i := range s.Objects {
		if s.Objects[i].Indicator == ind {
			return true
		}
	}
	return false
}

// Presence returns the image-level presence vector over the canonical
// indicator order — the label format the LLM evaluation consumes.
func (s *Scene) Presence() [NumIndicators]bool {
	var out [NumIndicators]bool
	for i := range s.Objects {
		if idx := s.Objects[i].Indicator.Index(); idx >= 0 {
			out[idx] = true
		}
	}
	return out
}

// CountByIndicator returns per-class object counts in canonical order.
func (s *Scene) CountByIndicator() [NumIndicators]int {
	var out [NumIndicators]int
	for i := range s.Objects {
		if idx := s.Objects[i].Indicator.Index(); idx >= 0 {
			out[idx]++
		}
	}
	return out
}

// Validate checks structural invariants: valid boxes, known indicators,
// at most one road class present, and road class consistent with the
// sample point when a road is visible.
func (s *Scene) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("scene: empty id")
	}
	if s.View != ViewAlongRoad && s.View != ViewAcrossRoad {
		return fmt.Errorf("scene %s: unknown view kind %d", s.ID, int(s.View))
	}
	hasSingle, hasMulti := false, false
	for i := range s.Objects {
		o := &s.Objects[i]
		if o.Indicator.Index() < 0 {
			return fmt.Errorf("scene %s: object %d has unknown indicator %d", s.ID, i, int(o.Indicator))
		}
		if !o.BBox.Valid() {
			return fmt.Errorf("scene %s: object %d (%s) has invalid bbox %+v", s.ID, i, o.Indicator, o.BBox)
		}
		switch o.Indicator {
		case SingleLaneRoad:
			hasSingle = true
		case MultilaneRoad:
			hasMulti = true
		}
	}
	if hasSingle && hasMulti {
		return fmt.Errorf("scene %s: both road classes present", s.ID)
	}
	if hasSingle && s.Point.RoadClass != geo.RoadSingleLane {
		return fmt.Errorf("scene %s: single-lane road object on a %s sample point", s.ID, s.Point.RoadClass)
	}
	if hasMulti && s.Point.RoadClass != geo.RoadMultiLane {
		return fmt.Errorf("scene %s: multilane road object on a %s sample point", s.ID, s.Point.RoadClass)
	}
	return nil
}
