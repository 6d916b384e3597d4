package scene

import (
	"math"
	"testing"
	"testing/quick"

	"nbhd/internal/geo"
)

func TestIndicatorString(t *testing.T) {
	tests := []struct {
		ind       Indicator
		str, abbr string
		wantIndex int
	}{
		{Streetlight, "streetlight", "SL", 0},
		{Sidewalk, "sidewalk", "SW", 1},
		{SingleLaneRoad, "single-lane road", "SR", 2},
		{MultilaneRoad, "multilane road", "MR", 3},
		{Powerline, "powerline", "PL", 4},
		{Apartment, "apartment", "AP", 5},
	}
	for _, tt := range tests {
		if got := tt.ind.String(); got != tt.str {
			t.Errorf("%v.String() = %q, want %q", tt.ind, got, tt.str)
		}
		if got := tt.ind.Abbrev(); got != tt.abbr {
			t.Errorf("%v.Abbrev() = %q, want %q", tt.ind, got, tt.abbr)
		}
		if got := tt.ind.Index(); got != tt.wantIndex {
			t.Errorf("%v.Index() = %d, want %d", tt.ind, got, tt.wantIndex)
		}
	}
	if Indicator(0).Index() != -1 || Indicator(7).Index() != -1 {
		t.Error("out-of-range indicators should index to -1")
	}
}

func TestParseIndicator(t *testing.T) {
	for _, ind := range Indicators() {
		got, err := ParseIndicator(ind.String())
		if err != nil || got != ind {
			t.Errorf("ParseIndicator(%q) = %v, %v", ind.String(), got, err)
		}
		got, err = ParseIndicator(ind.Abbrev())
		if err != nil || got != ind {
			t.Errorf("ParseIndicator(%q) = %v, %v", ind.Abbrev(), got, err)
		}
	}
	if _, err := ParseIndicator("pond"); err == nil {
		t.Error("ParseIndicator accepted unknown name")
	}
}

func TestIndicatorsOrder(t *testing.T) {
	want := [NumIndicators]Indicator{Streetlight, Sidewalk, SingleLaneRoad, MultilaneRoad, Powerline, Apartment}
	if Indicators() != want {
		t.Errorf("Indicators() = %v, want canonical paper order", Indicators())
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{X0: 0.1, Y0: 0.2, X1: 0.5, Y1: 0.6}
	if !r.Valid() {
		t.Fatal("valid rect rejected")
	}
	if w := r.Width(); math.Abs(w-0.4) > 1e-12 {
		t.Errorf("Width = %f", w)
	}
	if h := r.Height(); math.Abs(h-0.4) > 1e-12 {
		t.Errorf("Height = %f", h)
	}
	if a := r.Area(); math.Abs(a-0.16) > 1e-12 {
		t.Errorf("Area = %f", a)
	}
	cx, cy := r.Center()
	if math.Abs(cx-0.3) > 1e-12 || math.Abs(cy-0.4) > 1e-12 {
		t.Errorf("Center = (%f,%f)", cx, cy)
	}
}

func TestRectValid(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"unit", Rect{0, 0, 1, 1}, true},
		{"inverted x", Rect{0.5, 0, 0.1, 1}, false},
		{"inverted y", Rect{0, 0.5, 1, 0.1}, false},
		{"degenerate", Rect{0.5, 0.5, 0.5, 0.9}, false},
		{"out of square", Rect{-0.1, 0, 1, 1}, false},
		{"over 1", Rect{0, 0, 1.2, 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Valid(); got != tt.want {
				t.Errorf("Valid() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectIoU(t *testing.T) {
	a := Rect{0, 0, 0.5, 0.5}
	if got := a.IoU(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self IoU = %f, want 1", got)
	}
	b := Rect{0.5, 0.5, 1, 1}
	if got := a.IoU(b); got != 0 {
		t.Errorf("disjoint IoU = %f, want 0", got)
	}
	// Half overlap: a=[0,0,0.4,0.4], c=[0.2,0,0.6,0.4] -> inter .08, union .24.
	c := Rect{0.2, 0, 0.6, 0.4}
	d := Rect{0, 0, 0.4, 0.4}
	want := 0.08 / 0.24
	if got := d.IoU(c); math.Abs(got-want) > 1e-12 {
		t.Errorf("IoU = %f, want %f", got, want)
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{-0.5, -0.1, 1.4, 0.9}.Clamp()
	want := Rect{0, 0, 1, 0.9}
	if r != want {
		t.Errorf("Clamp = %+v, want %+v", r, want)
	}
}

// Property: IoU is symmetric and within [0,1].
func TestRectIoUProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(v float64) float64 { return math.Abs(math.Mod(v, 1)) }
		a := Rect{norm(ax), norm(ay), norm(ax) + norm(aw)*0.5 + 0.01, norm(ay) + norm(ah)*0.5 + 0.01}.Clamp()
		b := Rect{norm(bx), norm(by), norm(bx) + norm(bw)*0.5 + 0.01, norm(by) + norm(bh)*0.5 + 0.01}.Clamp()
		i1, i2 := a.IoU(b), b.IoU(a)
		return math.Abs(i1-i2) < 1e-12 && i1 >= 0 && i1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testPoint(class geo.RoadClass, urbanicity, bearing float64) geo.SamplePoint {
	return geo.SamplePoint{
		Coordinate: geo.Coordinate{Lat: 35, Lng: -79},
		RoadID:     1,
		RoadClass:  class,
		Urbanicity: urbanicity,
		BearingDeg: bearing,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := NewGenerator(nil)
	p := testPoint(geo.RoadSingleLane, 0.5, 0)
	a, err := g.Generate("x-0001-n", p, geo.HeadingNorth, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := g.Generate("x-0001-n", p, geo.HeadingNorth, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a.Objects) != len(b.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(a.Objects), len(b.Objects))
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Errorf("object %d differs between identical generations", i)
		}
	}
}

func TestGenerateDistinctPerHeading(t *testing.T) {
	g := NewGenerator(nil)
	p := testPoint(geo.RoadSingleLane, 0.5, 0)
	variety := make(map[int]bool)
	for _, h := range geo.CardinalHeadings() {
		s, err := g.Generate("x-0001-h", p, h, 42)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		variety[len(s.Objects)] = true
	}
	// Headings along the north-south road (N,S) must be along-road views;
	// E,W across.
	for _, h := range []geo.Heading{geo.HeadingNorth, geo.HeadingSouth} {
		s, _ := g.Generate("x-1", p, h, 42)
		if s.View != ViewAlongRoad {
			t.Errorf("heading %v on bearing-0 road: view = %v, want along", h, s.View)
		}
	}
	for _, h := range []geo.Heading{geo.HeadingEast, geo.HeadingWest} {
		s, _ := g.Generate("x-1", p, h, 42)
		if s.View != ViewAcrossRoad {
			t.Errorf("heading %v on bearing-0 road: view = %v, want across", h, s.View)
		}
	}
}

func TestGenerateEmptyID(t *testing.T) {
	g := NewGenerator(nil)
	if _, err := g.Generate("", testPoint(geo.RoadSingleLane, 0.5, 0), geo.HeadingNorth, 1); err == nil {
		t.Error("empty id accepted")
	}
}

func TestGenerateAlongRoadAlwaysHasRoad(t *testing.T) {
	g := NewGenerator(nil)
	p := testPoint(geo.RoadMultiLane, 0.8, 0)
	for seed := int64(0); seed < 50; seed++ {
		s, err := g.Generate("x", p, geo.HeadingNorth, seed)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if !s.Has(MultilaneRoad) {
			t.Fatalf("along-road view missing road object (seed %d)", seed)
		}
		if s.Has(SingleLaneRoad) {
			t.Fatalf("wrong road class generated (seed %d)", seed)
		}
	}
}

func TestGenerateRoadClassMatchesPoint(t *testing.T) {
	g := NewGenerator(nil)
	for seed := int64(0); seed < 30; seed++ {
		s, err := g.Generate("x", testPoint(geo.RoadSingleLane, 0.3, 90), geo.HeadingEast, seed)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if s.Has(MultilaneRoad) {
			t.Fatal("multilane object on single-lane point")
		}
	}
}

func TestGenerateUrbanicityGradient(t *testing.T) {
	g := NewGenerator(nil)
	count := func(u float64, ind Indicator) int {
		n := 0
		for seed := int64(0); seed < 400; seed++ {
			s, err := g.Generate("x", testPoint(geo.RoadSingleLane, u, 0), geo.HeadingNorth, seed)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if s.Has(ind) {
				n++
			}
		}
		return n
	}
	// Sidewalks, streetlights, apartments increase with urbanicity;
	// powerlines decrease.
	for _, ind := range []Indicator{Sidewalk, Streetlight, Apartment} {
		rural, urban := count(0.1, ind), count(0.9, ind)
		if urban <= rural {
			t.Errorf("%v: urban count %d <= rural count %d", ind, urban, rural)
		}
	}
	if rural, urban := count(0.1, Powerline), count(0.9, Powerline); urban >= rural {
		t.Errorf("powerline: urban count %d >= rural count %d", urban, rural)
	}
}

func TestGeneratedScenesValidate(t *testing.T) {
	g := NewGenerator(nil)
	for seed := int64(0); seed < 100; seed++ {
		for _, h := range geo.CardinalHeadings() {
			s, err := g.Generate("x", testPoint(geo.RoadMultiLane, 0.7, 45), h, seed)
			if err != nil {
				t.Fatalf("Generate(seed=%d, heading=%v): %v", seed, h, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("generated scene invalid: %v", err)
			}
		}
	}
}

func TestScenePresenceAndCounts(t *testing.T) {
	s := &Scene{
		ID:   "t",
		View: ViewAlongRoad,
		Objects: []Object{
			{Indicator: Streetlight, BBox: Rect{0.1, 0.1, 0.2, 0.6}},
			{Indicator: Streetlight, BBox: Rect{0.7, 0.1, 0.8, 0.6}},
			{Indicator: Powerline, BBox: Rect{0, 0.05, 1, 0.3}},
		},
	}
	p := s.Presence()
	if !p[Streetlight.Index()] || !p[Powerline.Index()] || p[Sidewalk.Index()] {
		t.Errorf("Presence = %v", p)
	}
	c := s.CountByIndicator()
	if c[Streetlight.Index()] != 2 || c[Powerline.Index()] != 1 || c[Apartment.Index()] != 0 {
		t.Errorf("CountByIndicator = %v", c)
	}
	if !s.Has(Powerline) || s.Has(Apartment) {
		t.Error("Has() wrong")
	}
}

func TestSceneValidate(t *testing.T) {
	valid := func() *Scene {
		return &Scene{
			ID:    "v",
			View:  ViewAlongRoad,
			Point: testPoint(geo.RoadSingleLane, 0.5, 0),
			Objects: []Object{
				{Indicator: SingleLaneRoad, BBox: Rect{0.2, 0.5, 0.8, 1.0}},
			},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid scene rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Scene)
	}{
		{"empty id", func(s *Scene) { s.ID = "" }},
		{"bad view", func(s *Scene) { s.View = ViewKind(0) }},
		{"unknown indicator", func(s *Scene) { s.Objects[0].Indicator = Indicator(9) }},
		{"invalid bbox", func(s *Scene) { s.Objects[0].BBox = Rect{0.9, 0.9, 0.1, 1.0} }},
		{"both road classes", func(s *Scene) {
			s.Objects = append(s.Objects, Object{Indicator: MultilaneRoad, BBox: Rect{0.1, 0.5, 0.9, 1.0}})
		}},
		{"road class mismatch", func(s *Scene) { s.Objects[0].Indicator = MultilaneRoad }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := valid()
			tt.mutate(s)
			if err := s.Validate(); err == nil {
				t.Error("invalid scene accepted")
			}
		})
	}
}

func TestViewKind(t *testing.T) {
	tests := []struct {
		bearing float64
		heading geo.Heading
		want    ViewKind
	}{
		{0, geo.HeadingNorth, ViewAlongRoad},
		{0, geo.HeadingSouth, ViewAlongRoad},
		{0, geo.HeadingEast, ViewAcrossRoad},
		{90, geo.HeadingEast, ViewAlongRoad},
		{90, geo.HeadingNorth, ViewAcrossRoad},
		{350, geo.HeadingNorth, ViewAlongRoad}, // 10° off axis
		{135, geo.HeadingNorth, ViewAcrossRoad},
		{180, geo.HeadingNorth, ViewAlongRoad},
	}
	for _, tt := range tests {
		if got := viewKind(tt.bearing, tt.heading); got != tt.want {
			t.Errorf("viewKind(%f, %v) = %v, want %v", tt.bearing, tt.heading, got, tt.want)
		}
	}
}

func TestViewKindString(t *testing.T) {
	if ViewAlongRoad.String() != "along-road" || ViewAcrossRoad.String() != "across-road" {
		t.Error("ViewKind strings wrong")
	}
	if ViewKind(9).String() != "ViewKind(9)" {
		t.Error("unknown ViewKind string wrong")
	}
}

func TestFrameID(t *testing.T) {
	tests := []struct {
		county  string
		index   int
		heading geo.Heading
		want    string
	}{
		{"Robeson", 42, geo.HeadingEast, "robeson-0042-e"},
		{"Durham", 7, geo.HeadingNorth, "durham-0007-n"},
		{"Durham", 1199, geo.HeadingWest, "durham-1199-w"},
		{"X", 0, geo.HeadingSouth, "x-0000-s"},
	}
	for _, tt := range tests {
		if got := FrameID(tt.county, tt.index, tt.heading); got != tt.want {
			t.Errorf("FrameID(%q,%d,%v) = %q, want %q", tt.county, tt.index, tt.heading, got, tt.want)
		}
	}
}

func TestDefaultPriorsInRange(t *testing.T) {
	p := DefaultPriors()
	for u := 0.0; u <= 1.0; u += 0.05 {
		for name, f := range map[string]func(float64) float64{
			"streetlight": p.Streetlight,
			"sidewalk":    p.Sidewalk,
			"powerline":   p.Powerline,
			"apartment":   p.Apartment,
		} {
			v := f(u)
			if v < 0 || v > 1 {
				t.Errorf("%s prior at u=%f is %f, outside [0,1]", name, u, v)
			}
		}
	}
}

// Property: generated objects always have valid bboxes regardless of
// urbanicity or seed.
func TestGenerateBBoxProperty(t *testing.T) {
	g := NewGenerator(nil)
	f := func(seed int64, u float64) bool {
		uu := math.Abs(math.Mod(u, 1))
		s, err := g.Generate("p", testPoint(geo.RoadMultiLane, uu, 30), geo.HeadingNorth, seed)
		if err != nil {
			return false
		}
		for _, o := range s.Objects {
			if !o.BBox.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
