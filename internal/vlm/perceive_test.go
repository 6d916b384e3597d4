package vlm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/render"
)

// perceivePalette is the renderer's palette plus off-palette tones near
// the probes' thresholds, so seeded palette images hit every predicate.
var perceivePalette = [][3]float32{
	{0.30, 0.30, 0.33}, // asphalt
	{0.95, 0.80, 0.15}, // yellow lane
	{0.92, 0.92, 0.92}, // white lane
	{0.74, 0.72, 0.68}, // sidewalk
	{0.12, 0.12, 0.13}, // pole
	{0.98, 0.88, 0.35}, // lamp head
	{0.08, 0.07, 0.08}, // wire
	{0.58, 0.26, 0.20}, // brick
	{0.80, 0.88, 0.95}, // window
	{0.30, 0.48, 0.22}, // grass
	{0.45, 0.65, 0.92}, // sky
	{0.18, 0.18, 0.19}, // just-too-bright dark
	{0.86, 0.86, 0.86}, // just-too-dark white
	{0.48, 0.48, 0.48}, // brightest asphalt mean
}

// paletteImage fills a w×h image with pixels drawn from a random subset
// of perceivePalette, seeded by the seed and the size.
func paletteImage(w, h int, seed int64) *render.Image {
	rng := rand.New(rand.NewSource(seed ^ int64(w)<<20 ^ int64(h)<<40))
	colors := rng.Perm(len(perceivePalette))[:2+rng.Intn(4)]
	img := render.MustNewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := perceivePalette[colors[rng.Intn(len(colors))]]
			img.SetRGB(x, y, c[0], c[1], c[2])
		}
	}
	return img
}

// perceiveGolden perceives every image of the golden and returns the
// encoded file: one JSON string per image, naming it and ending in its
// features. The rendered frames come at 96×96 and at 200×200, which
// perception downscales; the palette images cover sizes whose thirds
// and tenths round to zero rows, and a width past perceptionSize.
func perceiveGolden(t *testing.T) []byte {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, st.Len())
	for i := range idx {
		idx[i] = i
	}
	var lines []string
	add := func(name string, img *render.Image) {
		f, err := Perceive(img)
		if err != nil {
			t.Fatalf("perceive %s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %dx%d %+v", name, img.W, img.H, f))
	}
	for _, size := range []int{96, 200} {
		ex, err := st.RenderExamples(idx, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ex {
			add(e.ID, e.Image)
		}
	}
	for _, sz := range [][2]int{{1, 1}, {2, 2}, {3, 1}, {37, 23}, {129, 5}} {
		for seed := int64(1); seed <= 10; seed++ {
			add(fmt.Sprintf("palette-s%d", seed), paletteImage(sz[0], sz[1], seed))
		}
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

// TestPerceiveGolden pins perception's features byte for byte over
// rendered study frames and seeded palette images.
func TestPerceiveGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/perceive.json")
	if err != nil {
		t.Fatal(err)
	}
	got := perceiveGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("features diverge from testdata/perceive.json at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("features have %d lines, testdata/perceive.json has %d", len(gotLines), len(wantLines))
}

// TestPerceiveNeverPanics feeds Perceive malformed images: each must
// return an error, never panic, and well-formed edge sizes must still
// perceive.
func TestPerceiveNeverPanics(t *testing.T) {
	tests := []struct {
		name    string
		img     *render.Image
		wantErr bool
	}{
		{"nil image", nil, true},
		{"zero size, no pixels", &render.Image{}, true},
		{"zero width", &render.Image{W: 0, H: 4, Pix: make([]float32, 12)}, true},
		{"zero height", &render.Image{W: 4, H: 0, Pix: make([]float32, 12)}, true},
		{"negative width", &render.Image{W: -2, H: -3, Pix: make([]float32, 18)}, true},
		{"short pixels", &render.Image{W: 4, H: 4, Pix: make([]float32, 47)}, true},
		{"long pixels", &render.Image{W: 4, H: 4, Pix: make([]float32, 49)}, true},
		{"one channel", &render.Image{W: 4, H: 4, Pix: make([]float32, 16)}, true},
		{"short pixels past resize", &render.Image{W: 300, H: 300, Pix: make([]float32, 10)}, true},
		{"width past pixels", &render.Image{W: 1 << 30, H: 1, Pix: make([]float32, 3)}, true},
		// 3·H wraps around to 2 in int arithmetic.
		{"size overflowing to the pixel count", &render.Image{W: 1, H: int(^uint(0)/3 + 1), Pix: make([]float32, 2)}, true},
		{"1x1", render.MustNewImage(1, 1), false},
		{"1x300, resized", render.MustNewImage(1, 300), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Perceive panicked: %v", r)
				}
			}()
			_, err := Perceive(tt.img)
			if (err != nil) != tt.wantErr {
				t.Errorf("Perceive error = %v, want error %v", err, tt.wantErr)
			}
		})
	}
}
