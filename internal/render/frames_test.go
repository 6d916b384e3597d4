package render

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"nbhd/internal/geo"
	"nbhd/internal/scene"
)

// goldenScenes generates the frame golden's scenes: every urbanicity
// in a low-to-high ladder × both road classes × a heading along and one
// across the road × three seeds. The ladder spreads the vegetation
// density, and its top urbanicities reach apartments and streetlights.
func goldenScenes(t *testing.T) []*scene.Scene {
	t.Helper()
	g := scene.NewGenerator(nil)
	var out []*scene.Scene
	for _, u := range []float64{0.05, 0.4, 0.75, 1} {
		for _, class := range []geo.RoadClass{geo.RoadSingleLane, geo.RoadMultiLane} {
			for _, heading := range []geo.Heading{geo.HeadingNorth, geo.HeadingEast} {
				for seed := int64(1); seed <= 3; seed++ {
					p := geo.SamplePoint{
						Coordinate:   geo.Coordinate{Lat: 35.9, Lng: -79.0},
						RoadID:       int(class),
						RoadClass:    class,
						MilepostFeet: 100 * u,
						Urbanicity:   u,
					}
					id := fmt.Sprintf("u%g-%v-h%d-s%d", u, class, int(heading), seed)
					s, err := g.Generate(id, p, heading, seed)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// frameHash is the hex SHA-256 of an image's raw float32 encoding.
func frameHash(m *Image) string {
	sum := sha256.Sum256(m.EncodeRawF32())
	return hex.EncodeToString(sum[:])
}

// frameGolden renders every golden scene at every golden size, applies
// each pixel operation to one frame, and returns the encoded file: one
// JSON string per image, naming it and ending in its size and hash.
func frameGolden(t *testing.T) []byte {
	t.Helper()
	var lines []string
	add := func(name string, m *Image) {
		lines = append(lines, fmt.Sprintf("%s %dx%d %s", name, m.W, m.H, frameHash(m)))
	}
	sizes := [][2]int{{1, 1}, {7, 5}, {37, 23}, {96, 96}, {640, 640}}
	for _, s := range goldenScenes(t) {
		for _, sz := range sizes {
			img, err := Render(s, Config{Width: sz[0], Height: sz[1]})
			if err != nil {
				t.Fatal(err)
			}
			add(s.ID, img)
		}
	}

	// Scene 36 is an along-road view with four objects.
	base, err := Render(goldenScenes(t)[36], Config{Width: 37, Height: 23})
	if err != nil {
		t.Fatal(err)
	}
	for k := -1; k <= 4; k++ {
		add(fmt.Sprintf("rotate90(%d)", k), base.Rotate90(k))
	}
	for _, r := range []scene.Rect{{X0: 0, Y0: 0, X1: 1, Y1: 1}, {X0: 0.1, Y0: 0.3, X1: 0.62, Y1: 0.9}, {X0: 0.95, Y0: 0, X1: 1, Y1: 0.05}} {
		c, err := base.Crop(r)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("crop(%g,%g,%g,%g)", r.X0, r.Y0, r.X1, r.Y1), c)
	}
	for _, r := range [][4]int{{3, 2, 20, 9}, {-5, -5, 4, 3}, {30, 15, 99, 99}, {10, 10, 5, 5}, {-1, -1, 100, 100}} {
		m := base.Clone()
		m.FillRect(r[0], r[1], r[2], r[3], 0.2, 1.4, -0.1)
		add(fmt.Sprintf("fillrect(%d,%d,%d,%d)", r[0], r[1], r[2], r[3]), m)
	}
	for _, sz := range [][2]int{{37, 23}, {1, 1}, {16, 9}, {200, 150}, {37, 64}} {
		m, err := base.Resize(sz[0], sz[1])
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("resize(%d,%d)", sz[0], sz[1]), m)
	}

	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, line := range lines {
		enc, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(enc)
		if i < len(lines)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// TestGoldenScenesCover checks the golden's scenes still span what it
// is meant to pin: both view kinds, each with every object class, and
// several vegetation densities.
func TestGoldenScenesCover(t *testing.T) {
	seen := map[scene.ViewKind]map[scene.Indicator]bool{}
	densities := map[float64]bool{}
	for _, s := range goldenScenes(t) {
		if seen[s.View] == nil {
			seen[s.View] = map[scene.Indicator]bool{}
		}
		for _, o := range s.Objects {
			seen[s.View][o.Indicator] = true
		}
		densities[s.VegetationDensity] = true
	}
	for _, v := range []scene.ViewKind{scene.ViewAlongRoad, scene.ViewAcrossRoad} {
		for _, ind := range scene.Indicators() {
			if !seen[v][ind] {
				t.Errorf("no %v scene draws a %v", v, ind)
			}
		}
	}
	if len(densities) < 10 {
		t.Errorf("only %d distinct vegetation densities", len(densities))
	}
}

// TestFramesGolden pins rendered pixels byte for byte: every golden
// scene at sizes from 1×1 to the paper's 640×640, plus the rotate,
// crop, fill and resize operations on one frame.
func TestFramesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/frames.json")
	if err != nil {
		t.Fatal(err)
	}
	got := frameGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("frames diverge from testdata/frames.json at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("frames have %d lines, testdata/frames.json has %d", len(gotLines), len(wantLines))
}

// TestRenderIntoDirtyMatchesGolden renders every golden scene at every
// golden size into dirty buffers — first one filled with NaN, then one
// still holding the previous scene's frame — and checks each against
// the frame's row in testdata/frames.json.
func TestRenderIntoDirtyMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/frames.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	// A row is "<name> <W>x<H> <hash>"; scene names contain spaces.
	want := make(map[string]string, len(rows))
	for _, row := range rows {
		cut := strings.LastIndexByte(row, ' ')
		want[row[:cut]] = row[cut+1:]
	}
	sizes := [][2]int{{1, 1}, {7, 5}, {37, 23}, {96, 96}, {640, 640}}
	prev := make([]*Image, len(sizes))
	for i, sz := range sizes {
		prev[i] = MustNewImage(sz[0], sz[1])
	}
	checked := 0
	for _, s := range goldenScenes(t) {
		for i, sz := range sizes {
			key := fmt.Sprintf("%s %dx%d", s.ID, sz[0], sz[1])
			hash, ok := want[key]
			if !ok {
				t.Fatalf("testdata/frames.json has no row %q", key)
			}
			nan := MustNewImage(sz[0], sz[1])
			for k := range nan.Pix {
				nan.Pix[k] = float32(math.NaN())
			}
			for _, dirty := range []struct {
				name string
				dst  *Image
			}{{"NaN", nan}, {"previous frame", prev[i]}} {
				if err := RenderInto(s, dirty.dst); err != nil {
					t.Fatal(err)
				}
				if got := frameHash(dirty.dst); got != hash {
					t.Errorf("%s into a %s buffer hashes %s, golden %s", key, dirty.name, got, hash)
				}
				checked++
			}
		}
	}
	if checked != 2*len(goldenScenes(t))*len(sizes) {
		t.Fatalf("checked %d renders", checked)
	}
}

// TestRenderIntoErrors: a buffer whose size is not positive or does not
// match its pixels is an error, and an invalid scene fails exactly as
// it does under Render.
func TestRenderIntoErrors(t *testing.T) {
	s := goldenScenes(t)[0]
	for _, dst := range []*Image{
		{W: 0, H: 4, Pix: make([]float32, 12)},
		{W: 4, H: -1},
		{W: -2, H: -2},
		{},
		{W: 2, H: 2, Pix: make([]float32, 11)},
	} {
		if err := RenderInto(s, dst); err == nil {
			t.Errorf("RenderInto(%dx%d, %d pixel values) succeeded", dst.W, dst.H, len(dst.Pix))
		}
	}
	bad := *s
	bad.ID = ""
	_, renderErr := Render(&bad, Config{Width: 8, Height: 8})
	if renderErr == nil {
		t.Fatal("Render accepted a scene without an ID")
	}
	err := RenderInto(&bad, MustNewImage(8, 8))
	if err == nil || err.Error() != renderErr.Error() {
		t.Errorf("RenderInto(invalid scene) = %v, want Render's %v", err, renderErr)
	}
}

// TestRenderIntoAllocs checks that drawing a scene's objects allocates
// nothing: RenderInto into a reused buffer, on the golden scene with the
// most object classes, makes at most the one allocation of its seeded
// source.
func TestRenderIntoAllocs(t *testing.T) {
	var s *scene.Scene
	most := 0
	for _, g := range goldenScenes(t) {
		classes := 0
		for _, c := range g.CountByIndicator() {
			if c > 0 {
				classes++
			}
		}
		if classes > most {
			s, most = g, classes
		}
	}
	if most < 3 {
		t.Fatalf("the golden scenes draw at most %d object classes, want at least 3", most)
	}
	dst := MustNewImage(37, 23)
	allocs := testing.AllocsPerRun(20, func() {
		if err := RenderInto(s, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("RenderInto allocates %v objects per frame, want at most 1", allocs)
	}
}
