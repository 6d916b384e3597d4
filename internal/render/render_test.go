package render

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"nbhd/internal/geo"
	"nbhd/internal/scene"
)

func TestNewImage(t *testing.T) {
	img, err := NewImage(10, 20)
	if err != nil {
		t.Fatalf("NewImage: %v", err)
	}
	if img.W != 10 || img.H != 20 || len(img.Pix) != 3*10*20 {
		t.Errorf("image dims wrong: %dx%d pix=%d", img.W, img.H, len(img.Pix))
	}
	for _, bad := range [][2]int{{0, 5}, {5, 0}, {-1, 5}} {
		if _, err := NewImage(bad[0], bad[1]); err == nil {
			t.Errorf("NewImage(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestImageSetAtClamp(t *testing.T) {
	img := MustNewImage(4, 4)
	img.Set(1, 1, 0, 0.5)
	if got := img.At(1, 1, 0); got != 0.5 {
		t.Errorf("At = %f, want 0.5", got)
	}
	img.Set(2, 2, 1, 1.7)
	if got := img.At(2, 2, 1); got != 1 {
		t.Errorf("over-range value stored %f, want clamp to 1", got)
	}
	img.Set(2, 2, 2, -0.3)
	if got := img.At(2, 2, 2); got != 0 {
		t.Errorf("negative value stored %f, want clamp to 0", got)
	}
	// Out-of-bounds reads return zero, writes are ignored.
	if got := img.At(-1, 0, 0); got != 0 {
		t.Errorf("oob At = %f", got)
	}
	img.Set(99, 99, 0, 1) // must not panic
	img.Set(0, 0, 5, 1)   // bad channel ignored
	if got := img.At(0, 0, 5); got != 0 {
		t.Errorf("bad channel At = %f", got)
	}
}

func TestRowAliasesPlanes(t *testing.T) {
	img := MustNewImage(3, 2)
	img.SetRGB(2, 1, 0.25, 0.5, 0.75)
	r, g, b := img.Row(1)
	if len(r) != 3 || r[2] != 0.25 || g[2] != 0.5 || b[2] != 0.75 {
		t.Fatalf("Row(1) = %v %v %v", r, g, b)
	}
	r[0], g[0], b[0] = 0.1, 0.2, 0.3
	if img.At(0, 1, 0) != 0.1 || img.At(0, 1, 1) != 0.2 || img.At(0, 1, 2) != 0.3 {
		t.Error("writes through Row are not visible through At")
	}
	if r, _, _ := img.Row(0); r[0] != 0 || r[2] != 0 {
		t.Errorf("Row(0) red = %v, want untouched", r)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	img := MustNewImage(8, 6)
	img.SetRGB(3, 2, 0.2, 0.4, 0.6)
	img.SetRGB(7, 5, 1, 1, 1)
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		t.Fatalf("EncodePNG: %v", err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatalf("DecodePNG: %v", err)
	}
	if back.W != 8 || back.H != 6 {
		t.Fatalf("round-trip dims %dx%d", back.W, back.H)
	}
	// 8-bit quantization tolerance.
	for c := 0; c < 3; c++ {
		if d := math.Abs(float64(back.At(3, 2, c) - img.At(3, 2, c))); d > 1.0/255 {
			t.Errorf("channel %d drifted by %f", c, d)
		}
	}
}

func TestDecodePNGError(t *testing.T) {
	if _, err := DecodePNG(bytes.NewReader([]byte("not a png"))); err == nil {
		t.Error("garbage accepted as PNG")
	}
}

func TestResize(t *testing.T) {
	img := MustNewImage(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			img.SetRGB(x, y, 0.5, 0.5, 0.5)
		}
	}
	small, err := img.Resize(4, 4)
	if err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if small.W != 4 || small.H != 4 {
		t.Fatalf("resize dims %dx%d", small.W, small.H)
	}
	// Uniform image stays uniform under bilinear resize.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if v := small.At(x, y, 0); math.Abs(float64(v)-0.5) > 1e-5 {
				t.Errorf("resized pixel (%d,%d) = %f", x, y, v)
			}
		}
	}
	// Same-size resize is a copy.
	same, err := img.Resize(8, 8)
	if err != nil {
		t.Fatalf("Resize same: %v", err)
	}
	if same.At(3, 3, 0) != img.At(3, 3, 0) {
		t.Error("same-size resize changed pixels")
	}
	if _, err := img.Resize(0, 4); err == nil {
		t.Error("zero-size resize accepted")
	}
}

func TestAddGaussianNoiseSNR(t *testing.T) {
	img := MustNewImage(32, 32)
	for i := range img.Pix {
		img.Pix[i] = 0.5
	}
	noisy5 := img.AddGaussianNoiseSNR(5, 1)
	noisy30 := img.AddGaussianNoiseSNR(30, 1)
	dev := func(a, b *Image) float64 {
		var sum float64
		for i := range a.Pix {
			d := float64(a.Pix[i] - b.Pix[i])
			sum += d * d
		}
		return sum / float64(len(a.Pix))
	}
	d5, d30 := dev(noisy5, img), dev(noisy30, img)
	if d5 <= d30 {
		t.Errorf("SNR 5 dB should be noisier than 30 dB: %f vs %f", d5, d30)
	}
	if d30 == 0 {
		t.Error("30 dB noise had no effect")
	}
	// Deterministic in seed.
	again := img.AddGaussianNoiseSNR(5, 1)
	for i := range noisy5.Pix {
		if noisy5.Pix[i] != again.Pix[i] {
			t.Fatal("noise not deterministic in seed")
		}
	}
	// Original untouched.
	if img.Pix[0] != 0.5 {
		t.Error("AddGaussianNoiseSNR mutated the source image")
	}
}

func TestSignalPower(t *testing.T) {
	img := MustNewImage(2, 2)
	for i := range img.Pix {
		img.Pix[i] = 0.5
	}
	if got := img.SignalPower(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("SignalPower = %f, want 0.25", got)
	}
}

func testScene(t *testing.T, u float64) *scene.Scene {
	t.Helper()
	g := scene.NewGenerator(nil)
	p := geo.SamplePoint{
		Coordinate: geo.Coordinate{Lat: 35, Lng: -79},
		RoadID:     1,
		RoadClass:  geo.RoadMultiLane,
		Urbanicity: u,
		BearingDeg: 0,
	}
	s, err := g.Generate("render-test", p, geo.HeadingNorth, 7)
	if err != nil {
		t.Fatalf("generate scene: %v", err)
	}
	return s
}

// meanRGB is the average color inside a normalized-coordinate box, the
// probe the render tests use to check what a region looks like.
func meanRGB(m *Image, x0, y0, x1, y1 float64) (r, g, b float32) {
	px0, py0 := max(int(x0*float64(m.W)), 0), max(int(y0*float64(m.H)), 0)
	px1, py1 := min(int(x1*float64(m.W)), m.W), min(int(y1*float64(m.H)), m.H)
	var sr, sg, sb float64
	n := 0
	for y := py0; y < py1; y++ {
		for x := px0; x < px1; x++ {
			sr += float64(m.At(x, y, 0))
			sg += float64(m.At(x, y, 1))
			sb += float64(m.At(x, y, 2))
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float32(sr / float64(n)), float32(sg / float64(n)), float32(sb / float64(n))
}

func TestRenderBasics(t *testing.T) {
	s := testScene(t, 0.8)
	img, err := Render(s, Config{Width: 96, Height: 96})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	if img.W != 96 || img.H != 96 {
		t.Fatalf("render dims %dx%d", img.W, img.H)
	}
	// Sky region should be brighter than the road region.
	_, _, skyB := meanRGB(img, 0.3, 0.0, 0.7, 0.2)
	if skyB < 0.3 {
		t.Errorf("sky too dark: blue=%f", skyB)
	}
}

func TestRenderDefaultSize(t *testing.T) {
	s := testScene(t, 0.5)
	img, err := Render(s, Config{})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	if img.W != DefaultWidth || img.H != DefaultHeight {
		t.Errorf("default render dims %dx%d, want %dx%d", img.W, img.H, DefaultWidth, DefaultHeight)
	}
}

func TestRenderDeterministic(t *testing.T) {
	s := testScene(t, 0.6)
	a, err := Render(s, Config{Width: 64, Height: 64})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	b, err := Render(s, Config{Width: 64, Height: 64})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestRenderInvalidScene(t *testing.T) {
	s := &scene.Scene{ID: "", View: scene.ViewAlongRoad}
	if _, err := Render(s, Config{Width: 32, Height: 32}); err == nil {
		t.Error("invalid scene accepted")
	}
}

func TestRenderRoadDarkensGround(t *testing.T) {
	// A scene with a full along-road view: the lower-center region should
	// be asphalt-gray (all channels similar, moderate brightness), not
	// grass-green.
	s := &scene.Scene{
		ID:   "road",
		View: scene.ViewAlongRoad,
		Point: geo.SamplePoint{
			RoadClass: geo.RoadMultiLane,
		},
		SkyTone: 0.8,
		Objects: []scene.Object{
			{Indicator: scene.MultilaneRoad, BBox: scene.Rect{X0: 0.1, Y0: 0.46, X1: 0.9, Y1: 1.0}},
		},
	}
	img, err := Render(s, Config{Width: 96, Height: 96})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	r, g, b := meanRGB(img, 0.45, 0.85, 0.55, 0.98)
	if g > r+0.15 {
		t.Errorf("road region looks like grass: r=%f g=%f b=%f", r, g, b)
	}
}

// TestGroundJitterInRange: drawGround writes colGrassBase plus a jitter
// without clamping, so every channel must stay inside [0,1] at both
// extremes of the jitter, Float64 = 0 and Float64 → 1 (whose
// float32(f−0.5) rounds to 0.5).
func TestGroundJitterInRange(t *testing.T) {
	lo, hi := float32(0-0.5)*groundJitter, float32(0.5)*groundJitter
	for _, c := range []float32{colGrassBase.r, colGrassBase.g, colGrassBase.b} {
		if c+lo < 0 || c+hi > 1 {
			t.Errorf("ground channel %v jitters to [%v, %v], outside [0,1]", c, c+lo, c+hi)
		}
	}
	if got := float32(math.Nextafter(1, 0) - 0.5); got != 0.5 {
		t.Errorf("float32(largest Float64 - 0.5) = %v, want 0.5", got)
	}
}

func TestRenderDistinctObjectsChangePixels(t *testing.T) {
	base := &scene.Scene{
		ID:      "plain",
		View:    scene.ViewAlongRoad,
		Point:   geo.SamplePoint{RoadClass: geo.RoadSingleLane},
		SkyTone: 0.8,
	}
	withWire := &scene.Scene{
		ID:      "plain",
		View:    scene.ViewAlongRoad,
		Point:   geo.SamplePoint{RoadClass: geo.RoadSingleLane},
		SkyTone: 0.8,
		Objects: []scene.Object{
			{Indicator: scene.Powerline, BBox: scene.Rect{X0: 0, Y0: 0.05, X1: 1, Y1: 0.35}},
		},
	}
	a, err := Render(base, Config{Width: 64, Height: 64})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	b, err := Render(withWire, Config{Width: 64, Height: 64})
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("adding a powerline changed no pixels")
	}
}

func TestRotate90(t *testing.T) {
	img := MustNewImage(3, 2)
	img.SetRGB(0, 0, 1, 0, 0) // top-left marker
	r1 := img.Rotate90(1)
	if r1.W != 2 || r1.H != 3 {
		t.Fatalf("rotate90 dims %dx%d, want 2x3", r1.W, r1.H)
	}
	// Top-left goes to top-right under clockwise rotation.
	if r1.At(1, 0, 0) != 1 {
		t.Error("rotate90 misplaced top-left marker")
	}
	r2 := img.Rotate90(2)
	if r2.W != 3 || r2.H != 2 {
		t.Fatalf("rotate180 dims %dx%d", r2.W, r2.H)
	}
	if r2.At(2, 1, 0) != 1 {
		t.Error("rotate180 misplaced marker")
	}
	// Four quarter turns restore the original.
	r4 := img.Rotate90(1).Rotate90(1).Rotate90(1).Rotate90(1)
	for i := range img.Pix {
		if img.Pix[i] != r4.Pix[i] {
			t.Fatal("four quarter turns did not restore image")
		}
	}
	// k=0 and negative k.
	if r0 := img.Rotate90(0); r0.At(0, 0, 0) != 1 {
		t.Error("rotate0 changed image")
	}
	if rn := img.Rotate90(-1); rn.W != 2 || rn.At(0, 2, 0) != 1 {
		t.Error("rotate -90 wrong")
	}
}

func TestCrop(t *testing.T) {
	img := MustNewImage(10, 10)
	img.SetRGB(5, 5, 1, 1, 1)
	c, err := img.Crop(scene.Rect{X0: 0.5, Y0: 0.5, X1: 1, Y1: 1})
	if err != nil {
		t.Fatalf("Crop: %v", err)
	}
	if c.W != 5 || c.H != 5 {
		t.Fatalf("crop dims %dx%d", c.W, c.H)
	}
	if c.At(0, 0, 0) != 1 {
		t.Error("crop misplaced content")
	}
	if _, err := img.Crop(scene.Rect{X0: 0.9, Y0: 0, X1: 0.1, Y1: 1}); err == nil {
		t.Error("inverted crop rect accepted")
	}
}

func TestRotateRect(t *testing.T) {
	r := scene.Rect{X0: 0.1, Y0: 0.2, X1: 0.3, Y1: 0.6}
	// 4 quarter turns restore.
	got := r
	for i := 0; i < 4; i++ {
		got = RotateRect(got, 1)
	}
	if d := math.Abs(got.X0-r.X0) + math.Abs(got.Y0-r.Y0) + math.Abs(got.X1-r.X1) + math.Abs(got.Y1-r.Y1); d > 1e-12 {
		t.Errorf("4 quarter turns drifted rect by %f", d)
	}
	// Rotating preserves area.
	r1 := RotateRect(r, 1)
	if math.Abs(r1.Area()-r.Area()) > 1e-12 {
		t.Errorf("rotation changed area: %f -> %f", r.Area(), r1.Area())
	}
	if !r1.Valid() {
		t.Errorf("rotated rect invalid: %+v", r1)
	}
}

// Property: rotating a rect k times matches rotating the image k times —
// a pixel inside the rect stays inside the rotated rect.
func TestRotateRectMatchesImageProperty(t *testing.T) {
	f := func(k int, cx, cy float64) bool {
		k = ((k % 4) + 4) % 4
		nx := math.Abs(math.Mod(cx, 0.4)) + 0.3 // point in [0.3,0.7]
		ny := math.Abs(math.Mod(cy, 0.4)) + 0.3
		img := MustNewImage(40, 40)
		img.SetRGB(int(nx*40), int(ny*40), 1, 1, 1)
		rect := scene.Rect{X0: nx - 0.1, Y0: ny - 0.1, X1: nx + 0.1, Y1: ny + 0.1}
		rImg := img.Rotate90(k)
		rRect := RotateRect(rect, k)
		// Find the marker in the rotated image.
		for y := 0; y < rImg.H; y++ {
			for x := 0; x < rImg.W; x++ {
				if rImg.At(x, y, 0) == 1 {
					fx := (float64(x) + 0.5) / float64(rImg.W)
					fy := (float64(y) + 0.5) / float64(rImg.H)
					return fx >= rRect.X0 && fx <= rRect.X1 && fy >= rRect.Y0 && fy <= rRect.Y1
				}
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRawF32RoundTrip(t *testing.T) {
	img := MustNewImage(5, 3)
	for i := range img.Pix {
		img.Pix[i] = float32(i) / float32(len(img.Pix)) // not 8-bit representable
	}
	raw := img.EncodeRawF32()
	if len(raw) != 4*len(img.Pix) {
		t.Fatalf("raw length = %d, want %d", len(raw), 4*len(img.Pix))
	}
	back, err := DecodeRawF32(img.W, img.H, raw)
	if err != nil {
		t.Fatalf("DecodeRawF32: %v", err)
	}
	for i := range img.Pix {
		if back.Pix[i] != img.Pix[i] {
			t.Fatalf("pixel %d: %v != %v (raw round trip must be lossless)", i, back.Pix[i], img.Pix[i])
		}
	}
}

func TestDecodeRawF32Validation(t *testing.T) {
	if _, err := DecodeRawF32(0, 4, nil); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := DecodeRawF32(2, 2, make([]byte, 7)); err == nil {
		t.Error("short payload accepted")
	}
	// Out-of-range and NaN payload bytes are sanitized, not trusted.
	data := make([]byte, 4*Channels*1*1)
	binary.LittleEndian.PutUint32(data[0:], math.Float32bits(float32(math.NaN())))
	binary.LittleEndian.PutUint32(data[4:], math.Float32bits(7.5))
	binary.LittleEndian.PutUint32(data[8:], math.Float32bits(-3))
	img, err := DecodeRawF32(1, 1, data)
	if err != nil {
		t.Fatalf("DecodeRawF32: %v", err)
	}
	if img.Pix[0] != 0 || img.Pix[1] != 1 || img.Pix[2] != 0 {
		t.Errorf("sanitized pixels = %v, want [0 1 0]", img.Pix)
	}
}
