package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSettingString(t *testing.T) {
	tests := []struct {
		setting Setting
		want    string
	}{
		{SettingRural, "rural"},
		{SettingUrban, "urban"},
		{SettingMixed, "mixed"},
		{Setting(99), "Setting(99)"},
	}
	for _, tt := range tests {
		if got := tt.setting.String(); got != tt.want {
			t.Errorf("Setting(%d).String() = %q, want %q", int(tt.setting), got, tt.want)
		}
	}
}

func TestHeadingString(t *testing.T) {
	tests := []struct {
		heading Heading
		want    string
	}{
		{HeadingNorth, "N (0°)"},
		{HeadingEast, "E (90°)"},
		{HeadingSouth, "S (180°)"},
		{HeadingWest, "W (270°)"},
		{Heading(45), "45°"},
	}
	for _, tt := range tests {
		if got := tt.heading.String(); got != tt.want {
			t.Errorf("Heading(%d).String() = %q, want %q", int(tt.heading), got, tt.want)
		}
	}
}

func TestCardinalHeadings(t *testing.T) {
	hs := CardinalHeadings()
	want := [4]Heading{0, 90, 180, 270}
	if hs != want {
		t.Errorf("CardinalHeadings() = %v, want %v", hs, want)
	}
}

func TestCoordinateDistanceFeet(t *testing.T) {
	a := Coordinate{Lat: 35.0, Lng: -79.0}
	// One degree of latitude north.
	b := Coordinate{Lat: 36.0, Lng: -79.0}
	d := a.DistanceFeet(b)
	if math.Abs(d-FeetPerDegreeLat) > 1 {
		t.Errorf("1 degree latitude = %f feet, want ~%f", d, FeetPerDegreeLat)
	}
	// Zero distance.
	if d := a.DistanceFeet(a); d != 0 {
		t.Errorf("distance to self = %f, want 0", d)
	}
	// Symmetry.
	if d1, d2 := a.DistanceFeet(b), b.DistanceFeet(a); math.Abs(d1-d2) > 1e-9 {
		t.Errorf("distance not symmetric: %f vs %f", d1, d2)
	}
}

func TestCoordinateDistanceLongitudeShrinksWithLatitude(t *testing.T) {
	// A degree of longitude should be shorter at higher latitude.
	equator := Coordinate{Lat: 0, Lng: 0}.DistanceFeet(Coordinate{Lat: 0, Lng: 1})
	north := Coordinate{Lat: 60, Lng: 0}.DistanceFeet(Coordinate{Lat: 60, Lng: 1})
	if north >= equator {
		t.Errorf("longitude distance at 60N (%f) should be < at equator (%f)", north, equator)
	}
	if ratio := north / equator; math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("cos(60°) ratio = %f, want ~0.5", ratio)
	}
}

func TestCoordinateValid(t *testing.T) {
	tests := []struct {
		name  string
		coord Coordinate
		want  bool
	}{
		{"normal", Coordinate{Lat: 35, Lng: -79}, true},
		{"lat too high", Coordinate{Lat: 91, Lng: 0}, false},
		{"lat too low", Coordinate{Lat: -91, Lng: 0}, false},
		{"lng too high", Coordinate{Lat: 0, Lng: 181}, false},
		{"lng too low", Coordinate{Lat: 0, Lng: -181}, false},
		{"nan lat", Coordinate{Lat: math.NaN(), Lng: 0}, false},
		{"inf lng", Coordinate{Lat: 0, Lng: math.Inf(1)}, false},
		{"boundary", Coordinate{Lat: 90, Lng: 180}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.coord.Valid(); got != tt.want {
				t.Errorf("Valid() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRoadClassString(t *testing.T) {
	if got := RoadSingleLane.String(); got != "single-lane road" {
		t.Errorf("RoadSingleLane.String() = %q", got)
	}
	if got := RoadMultiLane.String(); got != "multilane road" {
		t.Errorf("RoadMultiLane.String() = %q", got)
	}
	if got := RoadClass(7).String(); got != "RoadClass(7)" {
		t.Errorf("RoadClass(7).String() = %q", got)
	}
}

func validRoad() Road {
	return Road{
		ID:                1,
		Name:              "NC-1001",
		Class:             RoadSingleLane,
		LanesPerDirection: 1,
		Urbanicity:        0.3,
		Points: []Coordinate{
			{Lat: 35.0, Lng: -79.0},
			{Lat: 35.01, Lng: -79.0},
		},
	}
}

func TestRoadValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Road)
		wantErr bool
	}{
		{"valid", func(r *Road) {}, false},
		{"one point", func(r *Road) { r.Points = r.Points[:1] }, true},
		{"zero lanes", func(r *Road) { r.LanesPerDirection = 0 }, true},
		{"single-lane with 2 lanes", func(r *Road) { r.LanesPerDirection = 2 }, true},
		{"multilane with 1 lane", func(r *Road) { r.Class = RoadMultiLane }, true},
		{"valid multilane", func(r *Road) { r.Class = RoadMultiLane; r.LanesPerDirection = 2 }, false},
		{"bad class", func(r *Road) { r.Class = RoadClass(9) }, true},
		{"urbanicity high", func(r *Road) { r.Urbanicity = 1.5 }, true},
		{"urbanicity negative", func(r *Road) { r.Urbanicity = -0.1 }, true},
		{"invalid point", func(r *Road) { r.Points[1].Lat = 200 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validRoad()
			tt.mutate(&r)
			err := r.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRoadLengthFeet(t *testing.T) {
	r := validRoad()
	want := r.Points[0].DistanceFeet(r.Points[1])
	if got := r.LengthFeet(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LengthFeet() = %f, want %f", got, want)
	}
	// Multi-segment road sums the segments.
	r.Points = append(r.Points, Coordinate{Lat: 35.02, Lng: -79.0})
	want += r.Points[1].DistanceFeet(r.Points[2])
	if got := r.LengthFeet(); math.Abs(got-want) > 1e-9 {
		t.Errorf("multi-segment LengthFeet() = %f, want %f", got, want)
	}
}

func TestCountyValidate(t *testing.T) {
	c := &County{
		Name:    "Test",
		Setting: SettingMixed,
		Origin:  Coordinate{Lat: 35, Lng: -79},
		Roads:   []Road{validRoad()},
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid county rejected: %v", err)
	}
	dup := validRoad()
	c.Roads = append(c.Roads, dup)
	if err := c.Validate(); err == nil {
		t.Error("duplicate road id accepted")
	}
	c.Roads = c.Roads[:1]
	c.Name = ""
	if err := c.Validate(); err == nil {
		t.Error("empty county name accepted")
	}
}

func TestSegmentInterval(t *testing.T) {
	c := &County{
		Name:    "Test",
		Setting: SettingMixed,
		Origin:  Coordinate{Lat: 35, Lng: -79},
		Roads:   []Road{validRoad()},
	}
	if _, err := c.Segment(0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := c.Segment(-50); err == nil {
		t.Error("negative interval accepted")
	}
	pts, err := c.Segment(SamplingIntervalFeet)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	length := c.Roads[0].LengthFeet()
	wantCount := int(length/SamplingIntervalFeet) + 1
	if len(pts) != wantCount {
		t.Errorf("point count = %d, want %d (road length %f feet)", len(pts), wantCount, length)
	}
}

func TestSegmentSpacing(t *testing.T) {
	c := &County{
		Name:    "Test",
		Setting: SettingMixed,
		Origin:  Coordinate{Lat: 35, Lng: -79},
		Roads:   []Road{validRoad()},
	}
	pts, err := c.Segment(SamplingIntervalFeet)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	for i := 1; i < len(pts); i++ {
		d := pts[i-1].Coordinate.DistanceFeet(pts[i].Coordinate)
		if math.Abs(d-SamplingIntervalFeet) > 0.5 {
			t.Errorf("spacing between points %d and %d = %f feet, want ~%f", i-1, i, d, SamplingIntervalFeet)
		}
	}
	// Mileposts are multiples of the interval.
	for i, p := range pts {
		if want := float64(i) * SamplingIntervalFeet; math.Abs(p.MilepostFeet-want) > 1e-9 {
			t.Errorf("milepost[%d] = %f, want %f", i, p.MilepostFeet, want)
		}
	}
}

func TestSegmentPointsCarryRoadContext(t *testing.T) {
	r := validRoad()
	r.Class = RoadMultiLane
	r.LanesPerDirection = 2
	r.Urbanicity = 0.8
	c := &County{
		Name:    "Test",
		Setting: SettingUrban,
		Origin:  Coordinate{Lat: 35, Lng: -79},
		Roads:   []Road{r},
	}
	pts, err := c.Segment(SamplingIntervalFeet)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	for _, p := range pts {
		if p.RoadID != 1 || p.RoadClass != RoadMultiLane || p.Urbanicity != 0.8 {
			t.Fatalf("point lost road context: %+v", p)
		}
	}
}

func TestBearingDeg(t *testing.T) {
	a := Coordinate{Lat: 35, Lng: -79}
	tests := []struct {
		name string
		b    Coordinate
		want float64
	}{
		{"north", Coordinate{Lat: 36, Lng: -79}, 0},
		{"east", Coordinate{Lat: 35, Lng: -78}, 90},
		{"south", Coordinate{Lat: 34, Lng: -79}, 180},
		{"west", Coordinate{Lat: 35, Lng: -80}, 270},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := bearingDeg(a, tt.b)
			if math.Abs(got-tt.want) > 0.5 {
				t.Errorf("bearingDeg = %f, want %f", got, tt.want)
			}
		})
	}
}

func TestGenerateCountyDeterministic(t *testing.T) {
	cfg := NetworkConfig{
		Name:       "Det",
		Setting:    SettingMixed,
		Origin:     Coordinate{Lat: 35, Lng: -79},
		ExtentFeet: 10000,
		RoadCount:  10,
		Seed:       42,
	}
	a, err := GenerateCounty(cfg)
	if err != nil {
		t.Fatalf("GenerateCounty: %v", err)
	}
	b, err := GenerateCounty(cfg)
	if err != nil {
		t.Fatalf("GenerateCounty: %v", err)
	}
	if len(a.Roads) != len(b.Roads) {
		t.Fatalf("road counts differ: %d vs %d", len(a.Roads), len(b.Roads))
	}
	for i := range a.Roads {
		if a.Roads[i].Name != b.Roads[i].Name || a.Roads[i].Class != b.Roads[i].Class {
			t.Errorf("road %d differs between runs", i)
		}
	}
}

func TestGenerateCountyConfigValidation(t *testing.T) {
	base := NetworkConfig{
		Name:       "X",
		Setting:    SettingRural,
		Origin:     Coordinate{Lat: 35, Lng: -79},
		ExtentFeet: 1000,
		RoadCount:  2,
	}
	tests := []struct {
		name   string
		mutate func(*NetworkConfig)
	}{
		{"empty name", func(c *NetworkConfig) { c.Name = "" }},
		{"zero extent", func(c *NetworkConfig) { c.ExtentFeet = 0 }},
		{"zero roads", func(c *NetworkConfig) { c.RoadCount = 0 }},
		{"bad origin", func(c *NetworkConfig) { c.Origin.Lat = 200 }},
		{"bad setting", func(c *NetworkConfig) { c.Setting = Setting(0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := GenerateCounty(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGenerateCountySettingSkew(t *testing.T) {
	count := func(setting Setting) (single, multi int) {
		c, err := GenerateCounty(NetworkConfig{
			Name:       "Skew",
			Setting:    setting,
			Origin:     Coordinate{Lat: 35, Lng: -79},
			ExtentFeet: 20000,
			RoadCount:  200,
			Seed:       7,
		})
		if err != nil {
			t.Fatalf("GenerateCounty: %v", err)
		}
		for _, r := range c.Roads {
			if r.Class == RoadSingleLane {
				single++
			} else {
				multi++
			}
		}
		return single, multi
	}
	rs, rm := count(SettingRural)
	us, um := count(SettingUrban)
	if rm >= rs {
		t.Errorf("rural county should skew single-lane: %d single vs %d multi", rs, rm)
	}
	if um <= us {
		t.Errorf("urban county should skew multilane: %d single vs %d multi", us, um)
	}
}

func TestGenerateCountyUrbanicityBands(t *testing.T) {
	c, err := GenerateCounty(NetworkConfig{
		Name:       "Band",
		Setting:    SettingUrban,
		Origin:     Coordinate{Lat: 35, Lng: -79},
		ExtentFeet: 5000,
		RoadCount:  50,
		Seed:       3,
	})
	if err != nil {
		t.Fatalf("GenerateCounty: %v", err)
	}
	lo, hi := urbanicityRange(SettingUrban)
	for _, r := range c.Roads {
		if r.Urbanicity < lo || r.Urbanicity > hi {
			t.Errorf("road %d urbanicity %f outside [%f,%f]", r.ID, r.Urbanicity, lo, hi)
		}
	}
}

func TestStudyCounties(t *testing.T) {
	rural, urban, err := StudyCounties(1)
	if err != nil {
		t.Fatalf("StudyCounties: %v", err)
	}
	if rural.Name != "Robeson" || rural.Setting != SettingRural {
		t.Errorf("rural county = %s/%v", rural.Name, rural.Setting)
	}
	if urban.Name != "Durham" || urban.Setting != SettingUrban {
		t.Errorf("urban county = %s/%v", urban.Name, urban.Setting)
	}
	rp, up, err := SampleFrame(rural, urban)
	if err != nil {
		t.Fatalf("SampleFrame: %v", err)
	}
	// The frame must comfortably exceed the study's 1,200-image sample
	// (300 coordinates x 4 headings).
	if len(rp)+len(up) < 1200 {
		t.Errorf("sampling frame too small: %d points", len(rp)+len(up))
	}
}

func TestSelectSample(t *testing.T) {
	frame := make([]SamplePoint, 100)
	for i := range frame {
		frame[i].RoadID = i
	}
	got := SelectSample(frame, 30, 5)
	if len(got) != 30 {
		t.Fatalf("sample size = %d, want 30", len(got))
	}
	seen := make(map[int]bool)
	for _, p := range got {
		if seen[p.RoadID] {
			t.Errorf("duplicate sample point %d (sampling must be without replacement)", p.RoadID)
		}
		seen[p.RoadID] = true
	}
	// Deterministic in seed.
	again := SelectSample(frame, 30, 5)
	for i := range got {
		if got[i].RoadID != again[i].RoadID {
			t.Fatal("SelectSample not deterministic in seed")
		}
	}
	// Different seed gives different order (overwhelmingly likely).
	other := SelectSample(frame, 30, 6)
	same := true
	for i := range got {
		if got[i].RoadID != other[i].RoadID {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
	// Oversized n clamps.
	if all := SelectSample(frame, 1000, 1); len(all) != 100 {
		t.Errorf("oversized sample = %d points, want 100", len(all))
	}
}

func TestLocateClampsToEnd(t *testing.T) {
	r := validRoad()
	end, _ := r.locate(1e12)
	last := r.Points[len(r.Points)-1]
	if end != last {
		t.Errorf("locate past end = %v, want %v", end, last)
	}
}

// Property: segmentation spacing holds for arbitrary generated counties.
func TestSegmentSpacingProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, err := GenerateCounty(NetworkConfig{
			Name:       "Prop",
			Setting:    SettingMixed,
			Origin:     Coordinate{Lat: 35, Lng: -79},
			ExtentFeet: 8000,
			RoadCount:  3,
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		pts, err := c.Segment(SamplingIntervalFeet)
		if err != nil {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].RoadID != pts[i-1].RoadID {
				continue // spacing only applies within one road
			}
			// Straight-line distance is at most the 50-foot along-path
			// interval (shorter when the pair straddles a bend) and
			// always positive.
			d := pts[i-1].Coordinate.DistanceFeet(pts[i].Coordinate)
			if d <= 0 || d > SamplingIntervalFeet+0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every generated road validates and has positive length.
func TestGeneratedRoadsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, err := GenerateCounty(NetworkConfig{
			Name:       "Prop",
			Setting:    SettingUrban,
			Origin:     Coordinate{Lat: 36, Lng: -78.9},
			ExtentFeet: 6000,
			RoadCount:  5,
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		for i := range c.Roads {
			if c.Roads[i].Validate() != nil || c.Roads[i].LengthFeet() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
