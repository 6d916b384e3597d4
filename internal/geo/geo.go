// Package geo models the geographic substrate of the study: counties,
// road networks, and the 50-foot segmentation of all roadways from which
// street-view sampling coordinates are drawn.
//
// The paper samples 1,200 Google Street View images "from the locations
// where we segment all roadways with an interval of 50 feet across two
// counties (e.g., Robeson and Durham counties), covering both rural and
// urban settings in North Carolina". This package reproduces that sampling
// frame synthetically: each County owns a procedurally generated road graph
// whose density, lane mix, and land use reflect its Setting (rural or
// urban), and Segmentation walks every road at a fixed interval producing
// SamplePoints with four compass Headings each.
package geo

import (
	"fmt"
	"math"
)

// FeetPerDegreeLat is the approximate number of feet per degree of
// latitude, used to convert the paper's 50-foot sampling interval into
// coordinate deltas.
const FeetPerDegreeLat = 364000.0

// SamplingIntervalFeet is the roadway segmentation interval used by the
// paper's data collection (50 feet).
const SamplingIntervalFeet = 50.0

// Setting classifies a county's dominant land use.
type Setting int

const (
	// SettingRural marks a county dominated by rural roadways (Robeson).
	SettingRural Setting = iota + 1
	// SettingUrban marks a county dominated by urban roadways (Durham).
	SettingUrban
	// SettingMixed marks a county with a balanced roadway mix.
	SettingMixed
)

// String returns the human-readable name of the setting.
func (s Setting) String() string {
	switch s {
	case SettingRural:
		return "rural"
	case SettingUrban:
		return "urban"
	case SettingMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Setting(%d)", int(s))
	}
}

// Heading is a compass direction in degrees used when requesting a
// street-view image at a coordinate. The paper uses all four cardinal
// headings per coordinate.
type Heading int

const (
	// HeadingNorth faces 0 degrees.
	HeadingNorth Heading = 0
	// HeadingEast faces 90 degrees.
	HeadingEast Heading = 90
	// HeadingSouth faces 180 degrees.
	HeadingSouth Heading = 180
	// HeadingWest faces 270 degrees.
	HeadingWest Heading = 270
)

// CardinalHeadings returns the four headings the paper requests per
// coordinate, in the order given in §IV-A (0=N, 90=E, 180=S, 270=W).
func CardinalHeadings() [4]Heading {
	return [4]Heading{HeadingNorth, HeadingEast, HeadingSouth, HeadingWest}
}

// String returns a compass label such as "N (0°)".
func (h Heading) String() string {
	switch h {
	case HeadingNorth:
		return "N (0°)"
	case HeadingEast:
		return "E (90°)"
	case HeadingSouth:
		return "S (180°)"
	case HeadingWest:
		return "W (270°)"
	default:
		return fmt.Sprintf("%d°", int(h))
	}
}

// Coordinate is a WGS84-style latitude/longitude pair. The synthetic
// counties live in a plausible North Carolina bounding box but the values
// are not tied to real-world places.
type Coordinate struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// DistanceFeet returns the approximate planar distance in feet between two
// coordinates, using a local equirectangular approximation (adequate at
// county scale).
func (c Coordinate) DistanceFeet(o Coordinate) float64 {
	meanLat := (c.Lat + o.Lat) / 2 * math.Pi / 180
	dLat := (c.Lat - o.Lat) * FeetPerDegreeLat
	dLng := (c.Lng - o.Lng) * FeetPerDegreeLat * math.Cos(meanLat)
	return math.Hypot(dLat, dLng)
}

// Valid reports whether the coordinate is a finite lat/lng in range.
func (c Coordinate) Valid() bool {
	if math.IsNaN(c.Lat) || math.IsNaN(c.Lng) || math.IsInf(c.Lat, 0) || math.IsInf(c.Lng, 0) {
		return false
	}
	return c.Lat >= -90 && c.Lat <= 90 && c.Lng >= -180 && c.Lng <= 180
}

// RoadClass distinguishes the two roadway indicator classes the paper
// labels: single-lane (one lane per direction) and multilane (more than
// one lane per direction).
type RoadClass int

const (
	// RoadSingleLane is one lane per direction.
	RoadSingleLane RoadClass = iota + 1
	// RoadMultiLane is more than one lane per direction.
	RoadMultiLane
)

// String returns the indicator-style name of the road class.
func (r RoadClass) String() string {
	switch r {
	case RoadSingleLane:
		return "single-lane road"
	case RoadMultiLane:
		return "multilane road"
	default:
		return fmt.Sprintf("RoadClass(%d)", int(r))
	}
}

// Road is one roadway polyline in a county's network.
type Road struct {
	// ID is unique within the county.
	ID int `json:"id"`
	// Name is a synthetic road name, e.g. "NC-7104".
	Name string `json:"name"`
	// Class is the lane-count classification of the roadway.
	Class RoadClass `json:"class"`
	// LanesPerDirection is >= 1; 1 for single-lane, 2+ for multilane.
	LanesPerDirection int `json:"lanes_per_direction"`
	// Points is the polyline geometry, at least two coordinates.
	Points []Coordinate `json:"points"`
	// Urbanicity in [0,1]: 0 = deep rural, 1 = dense urban. Drives the
	// scene generator's indicator priors along this road.
	Urbanicity float64 `json:"urbanicity"`
}

// LengthFeet returns the total polyline length in feet.
func (r *Road) LengthFeet() float64 {
	var total float64
	for i := 1; i < len(r.Points); i++ {
		total += r.Points[i-1].DistanceFeet(r.Points[i])
	}
	return total
}

// Validate reports structural problems with the road definition.
func (r *Road) Validate() error {
	if len(r.Points) < 2 {
		return fmt.Errorf("geo: road %d (%s): polyline needs >= 2 points, got %d", r.ID, r.Name, len(r.Points))
	}
	if r.LanesPerDirection < 1 {
		return fmt.Errorf("geo: road %d (%s): lanes per direction must be >= 1, got %d", r.ID, r.Name, r.LanesPerDirection)
	}
	switch r.Class {
	case RoadSingleLane:
		if r.LanesPerDirection != 1 {
			return fmt.Errorf("geo: road %d (%s): single-lane road with %d lanes per direction", r.ID, r.Name, r.LanesPerDirection)
		}
	case RoadMultiLane:
		if r.LanesPerDirection < 2 {
			return fmt.Errorf("geo: road %d (%s): multilane road with %d lanes per direction", r.ID, r.Name, r.LanesPerDirection)
		}
	default:
		return fmt.Errorf("geo: road %d (%s): unknown road class %d", r.ID, r.Name, int(r.Class))
	}
	if r.Urbanicity < 0 || r.Urbanicity > 1 {
		return fmt.Errorf("geo: road %d (%s): urbanicity %f outside [0,1]", r.ID, r.Name, r.Urbanicity)
	}
	for i, p := range r.Points {
		if !p.Valid() {
			return fmt.Errorf("geo: road %d (%s): invalid coordinate at index %d", r.ID, r.Name, i)
		}
	}
	return nil
}

// SamplePoint is one street-view sampling location produced by roadway
// segmentation: a coordinate on a road plus the road context needed by the
// scene generator.
type SamplePoint struct {
	// Coordinate is the location on the road polyline.
	Coordinate Coordinate `json:"coordinate"`
	// RoadID references the road this point lies on.
	RoadID int `json:"road_id"`
	// RoadClass is copied from the road for convenience.
	RoadClass RoadClass `json:"road_class"`
	// Urbanicity is copied from the road.
	Urbanicity float64 `json:"urbanicity"`
	// MilepostFeet is the distance in feet from the start of the road.
	MilepostFeet float64 `json:"milepost_feet"`
	// BearingDeg is the road's local bearing at this point, degrees
	// clockwise from north.
	BearingDeg float64 `json:"bearing_deg"`
}

// County is a synthetic county: a named road network with a dominant
// setting.
type County struct {
	// Name is the county's display name, e.g. "Robeson".
	Name string `json:"name"`
	// Setting is the dominant land use.
	Setting Setting `json:"setting"`
	// Origin anchors the county's coordinate frame (its southwest corner).
	Origin Coordinate `json:"origin"`
	// Roads is the county's roadway network.
	Roads []Road `json:"roads"`
}

// Validate checks the county and every road in it.
func (c *County) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("geo: county has empty name")
	}
	if !c.Origin.Valid() {
		return fmt.Errorf("geo: county %s: invalid origin", c.Name)
	}
	seen := make(map[int]bool, len(c.Roads))
	for i := range c.Roads {
		r := &c.Roads[i]
		if seen[r.ID] {
			return fmt.Errorf("geo: county %s: duplicate road id %d", c.Name, r.ID)
		}
		seen[r.ID] = true
		if err := r.Validate(); err != nil {
			return fmt.Errorf("geo: county %s: %w", c.Name, err)
		}
	}
	return nil
}

// Segment walks every road in the county at the given interval (feet) and
// returns one SamplePoint per step, reproducing the paper's "segment all
// roadways with an interval of 50 feet" sampling frame. An interval <= 0
// is an error.
func (c *County) Segment(intervalFeet float64) ([]SamplePoint, error) {
	if intervalFeet <= 0 {
		return nil, fmt.Errorf("geo: segmentation interval must be positive, got %f", intervalFeet)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var points []SamplePoint
	for i := range c.Roads {
		points = append(points, segmentRoad(&c.Roads[i], intervalFeet)...)
	}
	return points, nil
}

// segmentRoad walks one road polyline emitting points every intervalFeet.
func segmentRoad(r *Road, intervalFeet float64) []SamplePoint {
	length := r.LengthFeet()
	n := int(length/intervalFeet) + 1
	points := make([]SamplePoint, 0, n)
	for k := 0; k < n; k++ {
		milepost := float64(k) * intervalFeet
		coord, bearing := r.locate(milepost)
		points = append(points, SamplePoint{
			Coordinate:   coord,
			RoadID:       r.ID,
			RoadClass:    r.Class,
			Urbanicity:   r.Urbanicity,
			MilepostFeet: milepost,
			BearingDeg:   bearing,
		})
	}
	return points
}

// locate returns the coordinate and local bearing at a milepost along the
// road polyline. Mileposts past the end clamp to the final vertex.
func (r *Road) locate(milepostFeet float64) (Coordinate, float64) {
	remaining := milepostFeet
	for i := 1; i < len(r.Points); i++ {
		a, b := r.Points[i-1], r.Points[i]
		segLen := a.DistanceFeet(b)
		if segLen <= 0 {
			continue
		}
		if remaining <= segLen {
			t := remaining / segLen
			coord := Coordinate{
				Lat: a.Lat + (b.Lat-a.Lat)*t,
				Lng: a.Lng + (b.Lng-a.Lng)*t,
			}
			return coord, bearingDeg(a, b)
		}
		remaining -= segLen
	}
	last := r.Points[len(r.Points)-1]
	prev := r.Points[len(r.Points)-2]
	return last, bearingDeg(prev, last)
}

// bearingDeg returns the compass bearing from a to b in degrees [0,360).
func bearingDeg(a, b Coordinate) float64 {
	meanLat := (a.Lat + b.Lat) / 2 * math.Pi / 180
	dy := b.Lat - a.Lat
	dx := (b.Lng - a.Lng) * math.Cos(meanLat)
	deg := math.Atan2(dx, dy) * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	return deg
}
