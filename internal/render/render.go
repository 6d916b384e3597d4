package render

import (
	"fmt"
	"math"
	"math/rand"

	"nbhd/internal/randsrc"
	"nbhd/internal/scene"
)

// DefaultWidth and DefaultHeight match the paper's 640x640 GSV request
// resolution. The detector pipeline usually renders smaller (see
// Config.Width) because pure-Go conv training at 640x640 is impractical.
const (
	DefaultWidth  = 640
	DefaultHeight = 640
)

// Config controls rasterization.
type Config struct {
	// Width and Height are the output resolution in pixels. Zero values
	// default to 640x640.
	Width, Height int
}

// rgb is a convenience color triple.
type rgb struct{ r, g, b float32 }

// Palette used by the renderer. Colors are deliberately distinctive per
// indicator class: the study's object categories are visually separable in
// real street scenes, and the synthetic substrate preserves that
// separability so a small detector can reach the paper's accuracy regime.
var (
	colAsphalt     = rgb{0.30, 0.30, 0.33}
	colLaneYellow  = rgb{0.95, 0.80, 0.15}
	colLaneWhite   = rgb{0.92, 0.92, 0.92}
	colSidewalk    = rgb{0.74, 0.72, 0.68}
	colPole        = rgb{0.12, 0.12, 0.13}
	colLampHead    = rgb{0.98, 0.88, 0.35}
	colWire        = rgb{0.08, 0.07, 0.08}
	colWirePole    = rgb{0.35, 0.23, 0.13}
	colBrick       = rgb{0.58, 0.26, 0.20}
	colWindow      = rgb{0.80, 0.88, 0.95}
	colGrassBase   = rgb{0.30, 0.48, 0.22}
	colVegetation  = rgb{0.16, 0.34, 0.14}
	colSkyTop      = rgb{0.45, 0.65, 0.92}
	colSkyBottom   = rgb{0.80, 0.88, 0.97}
	colHorizonHaze = rgb{0.82, 0.84, 0.86}
)

// groundJitter is the width of the uniform brightness jitter on each
// ground pixel: colGrassBase ± groundJitter/2 stays inside [0,1], so the
// ground pass needs no clamp.
const groundJitter = 0.05

// Render rasterizes a scene into a new image. Rendering is
// deterministic in the scene (including its Seed and per-object
// StyleSeeds).
func Render(s *scene.Scene, cfg Config) (*Image, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	w, h := cfg.Width, cfg.Height
	if w == 0 {
		w = DefaultWidth
	}
	if h == 0 {
		h = DefaultHeight
	}
	img, err := NewImage(w, h)
	if err != nil {
		return nil, err
	}
	draw(s, img)
	return img, nil
}

// RenderInto rasterizes a scene into dst at dst's size, overwriting
// every pixel: the sky, the horizon haze and the ground between them
// cover every row, so dst's previous contents never show through and a
// reused buffer needs no clearing. The pixels equal Render's at the same
// size. An invalid scene, or a dst whose size is not positive or whose
// pixel slice does not match its size, is an error.
func RenderInto(s *scene.Scene, dst *Image) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if dst.W <= 0 || dst.H <= 0 {
		return fmt.Errorf("render: image size must be positive, got %dx%d", dst.W, dst.H)
	}
	if len(dst.Pix) != Channels*dst.W*dst.H {
		return fmt.Errorf("render: %dx%d image has %d pixel values, want %d", dst.W, dst.H, len(dst.Pix), Channels*dst.W*dst.H)
	}
	draw(s, dst)
	return nil
}

// draw paints a validated scene over every pixel of img.
func draw(s *scene.Scene, img *Image) {
	rng := randsrc.New(s.Seed ^ 0x5ce9e)

	drawSky(img, s.SkyTone)
	drawGround(img, rng)
	drawVegetation(img, rng, s.VegetationDensity)

	// One walk over the objects per class keeps placement order within
	// a class and allocates nothing.
	for _, ind := range zOrder {
		for i := range s.Objects {
			if o := &s.Objects[i]; o.Indicator == ind {
				drawObject(img, o, s.View)
			}
		}
	}
}

// zOrder is the fixed drawing order of the object classes: buildings
// behind road surface, wires and lights on top, so occlusion looks
// plausible.
var zOrder = [...]scene.Indicator{
	scene.Apartment,
	scene.SingleLaneRoad,
	scene.MultilaneRoad,
	scene.Sidewalk,
	scene.Powerline,
	scene.Streetlight,
}

// drawObject draws one object with its class's painter.
func drawObject(img *Image, o *scene.Object, view scene.ViewKind) {
	switch o.Indicator {
	case scene.Apartment:
		drawApartment(img, *o)
	case scene.SingleLaneRoad:
		drawRoad(img, *o, view, 1)
	case scene.MultilaneRoad:
		drawRoad(img, *o, view, 2)
	case scene.Sidewalk:
		drawSidewalk(img, *o, view)
	case scene.Powerline:
		drawPowerline(img, *o)
	case scene.Streetlight:
		drawStreetlight(img, *o)
	}
}

// px converts a normalized coordinate to a pixel index along an axis.
func px(v float64, extent int) int {
	p := int(v * float64(extent))
	if p < 0 {
		return 0
	}
	if p > extent {
		return extent
	}
	return p
}

// fillRect fills a normalized-coordinate rect with a flat color.
func fillRect(img *Image, r scene.Rect, c rgb) {
	x0, x1 := px(r.X0, img.W), px(r.X1, img.W)
	y0, y1 := px(r.Y0, img.H), px(r.Y1, img.H)
	for y := y0; y < y1; y++ {
		img.fillRow(y, x0, x1, c.r, c.g, c.b)
	}
}

func drawSky(img *Image, tone float64) {
	horizon := int(0.46 * float64(img.H))
	t := float32(tone)
	for y := 0; y < horizon; y++ {
		f := float32(y) / float32(horizon)
		r := (colSkyTop.r*(1-f) + colSkyBottom.r*f) * t
		g := (colSkyTop.g*(1-f) + colSkyBottom.g*f) * t
		b := (colSkyTop.b*(1-f) + colSkyBottom.b*f) * t
		img.fillRow(y, 0, img.W, r, g, b)
	}
	// Thin haze band at the horizon.
	for y := horizon; y < horizon+img.H/60+1 && y < img.H; y++ {
		img.fillRow(y, 0, img.W, colHorizonHaze.r, colHorizonHaze.g, colHorizonHaze.b)
	}
}

func drawGround(img *Image, rng *randsrc.Source) {
	horizon := int(0.46*float64(img.H)) + img.H/60 + 1
	for y := horizon; y < img.H; y++ {
		r, g, b := img.Row(y)
		g, b = g[:len(r)], b[:len(r)] // one bounds check per row
		for x := range r {
			jitter := float32(rng.Float64()-0.5) * groundJitter
			r[x] = colGrassBase.r + jitter
			g[x] = colGrassBase.g + jitter
			b[x] = colGrassBase.b + jitter
		}
	}
}

func drawVegetation(img *Image, rng *randsrc.Source, density float64) {
	blobs := int(density * 14)
	for i := 0; i < blobs; i++ {
		cx := rng.Float64()
		cy := 0.46 + rng.Float64()*0.25
		rx := 0.02 + rng.Float64()*0.06
		ry := rx * (0.6 + rng.Float64()*0.5)
		drawEllipse(img, cx, cy, rx, ry, colVegetation)
	}
}

func drawEllipse(img *Image, cx, cy, rx, ry float64, c rgb) {
	x0, x1 := px(cx-rx, img.W), px(cx+rx, img.W)
	y0, y1 := px(cy-ry, img.H), px(cy+ry, img.H)
	for y := y0; y < y1; y++ {
		fy := (float64(y)/float64(img.H) - cy) / ry
		for x := x0; x < x1; x++ {
			fx := (float64(x)/float64(img.W) - cx) / rx
			if fx*fx+fy*fy <= 1 {
				img.SetRGB(x, y, c.r, c.g, c.b)
			}
		}
	}
}

// drawRoad rasterizes a roadway. Along-road views get a perspective
// trapezoid with lane markings whose count distinguishes single-lane from
// multilane; across-road views get a flat strip.
func drawRoad(img *Image, o scene.Object, view scene.ViewKind, lanesPerDir int) {
	b := o.BBox
	if view == scene.ViewAcrossRoad {
		fillRect(img, b, colAsphalt)
		// One horizontal lane line hints at the road axis.
		mid := (b.Y0 + b.Y1) / 2
		line := scene.Rect{X0: b.X0, Y0: mid, X1: b.X1, Y1: mid + 0.02}
		if lanesPerDir > 1 {
			fillRect(img, line.Clamp(), colLaneWhite)
			second := scene.Rect{X0: b.X0, Y0: mid + 0.06, X1: b.X1, Y1: mid + 0.08}
			fillRect(img, second.Clamp(), colLaneWhite)
		} else {
			fillRect(img, line.Clamp(), colLaneYellow)
		}
		return
	}
	cx := (b.X0 + b.X1) / 2
	topHalf := b.Width() * 0.08
	botHalf := b.Width() / 2
	y0, y1 := px(b.Y0, img.H), px(b.Y1, img.H)
	for y := y0; y < y1; y++ {
		f := float64(y-y0) / math.Max(1, float64(y1-y0))
		half := topHalf + (botHalf-topHalf)*f
		x0, x1 := px(cx-half, img.W), px(cx+half, img.W)
		img.fillRow(y, x0, x1, colAsphalt.r, colAsphalt.g, colAsphalt.b)
		drawLaneMarkings(img, y, f, cx, half, lanesPerDir)
	}
}

// drawLaneMarkings paints the marking pattern for one scanline of an
// along-road view: a dashed yellow center line for single-lane roads, and
// white dashed dividers at the lane thirds (plus solid yellow center) for
// multilane roads.
func drawLaneMarkings(img *Image, y int, f, cx, half float64, lanesPerDir int) {
	dashOn := int(f*22)%2 == 0
	width := math.Max(1.4, half*float64(img.W)*0.05)
	paint := func(center float64, c rgb) {
		x0 := int(center*float64(img.W) - width/2)
		x1 := int(center*float64(img.W) + width/2)
		img.fillRow(y, x0, x1+1, c.r, c.g, c.b)
	}
	if lanesPerDir <= 1 {
		if dashOn {
			paint(cx, colLaneYellow)
		}
		return
	}
	paint(cx, colLaneYellow)
	if dashOn {
		paint(cx-half/2, colLaneWhite)
		paint(cx+half/2, colLaneWhite)
	}
}

func drawSidewalk(img *Image, o scene.Object, view scene.ViewKind) {
	fillRect(img, o.BBox, colSidewalk)
	// Expansion joints: darker seams perpendicular to the walk direction.
	b := o.BBox
	seam := rgb{colSidewalk.r - 0.18, colSidewalk.g - 0.18, colSidewalk.b - 0.18}
	if view == scene.ViewAlongRoad {
		for f := 0.1; f < 1.0; f += 0.18 {
			y := b.Y0 + b.Height()*f
			fillRect(img, scene.Rect{X0: b.X0, Y0: y, X1: b.X1, Y1: y + 0.006}.Clamp(), seam)
		}
	} else {
		for f := 0.05; f < 1.0; f += 0.12 {
			x := b.X0 + b.Width()*f
			fillRect(img, scene.Rect{X0: x, Y0: b.Y0, X1: x + 0.006, Y1: b.Y1}.Clamp(), seam)
		}
	}
}

func drawStreetlight(img *Image, o scene.Object) {
	b := o.BBox
	cx := (b.X0 + b.X1) / 2
	poleW := math.Max(b.Width()*0.30, 2.0/float64(img.W))
	pole := scene.Rect{X0: cx - poleW/2, Y0: b.Y0 + b.Height()*0.12, X1: cx + poleW/2, Y1: b.Y1}
	fillRect(img, pole.Clamp(), colPole)
	// Mast arm reaching toward the road with a bright lamp head — the
	// lamp is the class's strongest color cue, so it is drawn generously.
	arm := scene.Rect{X0: cx, Y0: b.Y0 + b.Height()*0.10, X1: b.X1, Y1: b.Y0 + b.Height()*0.17}
	fillRect(img, arm.Clamp(), colPole)
	lamp := scene.Rect{X0: cx + b.Width()*0.1, Y0: b.Y0, X1: b.X1, Y1: b.Y0 + b.Height()*0.16}
	fillRect(img, lamp.Clamp(), colLampHead)
}

func drawPowerline(img *Image, o scene.Object) {
	b := o.BBox
	rng := randsrc.New(o.StyleSeed)
	// Two wooden poles near the frame edges carrying the wires.
	for _, xc := range []float64{0.08 + rng.Float64()*0.06, 0.86 + rng.Float64()*0.06} {
		pole := scene.Rect{X0: xc, Y0: b.Y0, X1: xc + 0.015, Y1: b.Y1 + 0.35}
		fillRect(img, pole.Clamp(), colWirePole)
		cross := scene.Rect{X0: xc - 0.03, Y0: b.Y0 + 0.01, X1: xc + 0.045, Y1: b.Y0 + 0.022}
		fillRect(img, cross.Clamp(), colWirePole)
	}
	// Three sagging conductors spanning the frame.
	wires := 3
	for k := 0; k < wires; k++ {
		base := b.Y0 + b.Height()*(0.15+0.25*float64(k))
		sag := b.Height() * (0.10 + 0.05*rng.Float64())
		drawCatenary(img, base, sag, 1.2/float64(img.H))
	}
}

// drawCatenary paints one sagging wire across the full frame width: a
// parabola through (0,base),(0.5,base+sag),(1,base).
func drawCatenary(img *Image, base, sag, halfThick float64) {
	for x := 0; x < img.W; x++ {
		t := float64(x) / float64(img.W)
		y := base + sag*4*t*(1-t)
		y0, y1 := px(y-halfThick, img.H), px(y+halfThick, img.H)
		if y1 == y0 {
			y1 = y0 + 1
		}
		for yy := y0; yy < y1; yy++ {
			img.SetRGB(x, yy, colWire.r, colWire.g, colWire.b)
		}
	}
}

func drawApartment(img *Image, o scene.Object) {
	b := o.BBox
	rng := rand.New(randsrc.New(o.StyleSeed))
	body := colBrick
	// Vary the facade slightly per building.
	body.r = clampF32(body.r + float32(rng.Float64()-0.5)*0.1)
	fillRect(img, b, body)
	// Flat parapet roofline.
	roof := scene.Rect{X0: b.X0 - 0.01, Y0: b.Y0 - 0.015, X1: b.X1 + 0.01, Y1: b.Y0}
	fillRect(img, roof.Clamp(), rgb{0.25, 0.22, 0.20})
	// Regular window grid — the strongest "multi-unit housing" cue.
	floors := 3 + rng.Intn(3)
	cols := 4 + rng.Intn(3)
	for fl := 0; fl < floors; fl++ {
		for c := 0; c < cols; c++ {
			wx0 := b.X0 + b.Width()*(0.08+float64(c)*0.9/float64(cols))
			wy0 := b.Y0 + b.Height()*(0.10+float64(fl)*0.85/float64(floors))
			win := scene.Rect{X0: wx0, Y0: wy0, X1: wx0 + b.Width()*0.10, Y1: wy0 + b.Height()*0.14}
			fillRect(img, win.Clamp(), colWindow)
		}
	}
}
