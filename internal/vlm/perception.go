// Package vlm simulates the four commercial vision LLMs the paper
// evaluates (ChatGPT 4o mini, Gemini 1.5 Pro, Claude 3.7, Grok 2). Each
// simulated model is a real image-in/answer-out pipeline: a weak
// perception module extracts class cues from the pixels, and a per-model
// behavioral profile — calibrated to the paper's Tables III-VI confusion
// statistics — converts perceived evidence into stochastic Yes/No
// answers, including the documented failure modes (single-lane road
// over-prediction on partial views, §IV-C2), prompt-structure sensitivity
// (§IV-C1), language sensitivity (§IV-C3), and temperature/top-p effects
// (§IV-C4).
package vlm

import (
	"fmt"

	"nbhd/internal/render"
)

// perceptionSize is the maximum resolution perception operates at. Larger
// images are downscaled, which is both faster and a source of genuine
// perceptual weakness on thin structures; smaller images are probed at
// native resolution.
const perceptionSize = 128

// RoadKind is the perceived roadway category.
type RoadKind int

const (
	// RoadNone means no roadway surface was perceived.
	RoadNone RoadKind = iota + 1
	// RoadSingle is a perceived one-lane-per-direction roadway.
	RoadSingle
	// RoadMulti is a perceived multilane roadway.
	RoadMulti
)

// Features is the perceptual evidence extracted from one image.
type Features struct {
	// Road is the perceived roadway kind.
	Road RoadKind
	// PartialRoad reports that only a road strip at the frame bottom is
	// visible (an across-road view) — the situation in which the paper
	// observes LLMs over-predicting single-lane roads.
	PartialRoad bool
	// Sidewalk, Streetlight, Powerline, Apartment are per-class cues.
	Sidewalk, Streetlight, Powerline, Apartment bool
}

// Perceive extracts features from an image by color-signature probing on
// a downscaled view. The synthetic renderer gives each indicator class a
// distinctive signature, mirroring how the real classes are visually
// separable in street imagery. A nil image, a non-positive size or a
// pixel buffer whose length does not match the size is an error.
func Perceive(img *render.Image) (Features, error) {
	if img == nil {
		return Features{}, fmt.Errorf("vlm: perceive: nil image")
	}
	if !wellFormed(img) {
		return Features{}, fmt.Errorf("vlm: perceive: malformed %dx%d image with %d pixel values", img.W, img.H, len(img.Pix))
	}
	view := img
	if img.W > perceptionSize || img.H > perceptionSize {
		var err error
		view, err = img.Resize(perceptionSize, perceptionSize)
		if err != nil {
			return Features{}, err
		}
	}
	return perceive(view), nil
}

// wellFormed reports whether img has a positive size and exactly
// render.Channels values per pixel, dividing rather than multiplying so
// a huge claimed size cannot overflow into a match.
func wellFormed(img *render.Image) bool {
	if img.W <= 0 || img.H <= 0 || img.W > len(img.Pix) {
		return false
	}
	row := render.Channels * img.W
	return len(img.Pix)%row == 0 && len(img.Pix)/row == img.H
}

// pixel predicates over the renderer's palette, with generous tolerances
// so noise and resampling do not break them. isAsphalt and isBrick test
// first a condition that the grass and sky filling most of a frame fail.

func isAsphalt(r, g, b float32) bool {
	// Mid gray: channels close together, at a moderate mean.
	mean := (r + g + b) / 3
	return absf(g-b) < 0.07 && absf(r-g) < 0.07 && absf(r-b) < 0.09 && mean >= 0.18 && mean <= 0.48
}

func isWhiteLine(r, g, b float32) bool {
	return r > 0.86 && g > 0.86 && b > 0.86
}

func isYellowLine(r, g, b float32) bool {
	return r > 0.85 && g > 0.65 && b < 0.45
}

func isSidewalkTone(r, g, b float32) bool {
	// Light warm gray: r >= g >= b, moderate brightness, low spread.
	return r > 0.6 && r < 0.85 && g > 0.58 && b > 0.52 && r >= g && g >= b && r-b < 0.15
}

func isLamp(r, g, b float32) bool {
	return r > 0.9 && g > 0.78 && b < 0.55 && b > 0.15
}

func isDark(r, g, b float32) bool {
	return r < 0.18 && g < 0.18 && b < 0.2
}

func isBrick(r, g, b float32) bool {
	return r-g > 0.2 && g < 0.4 && r > 0.4 && r < 0.78 && g > 0.15 && b > 0.1 && b < 0.35
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// perceive probes a view of at most perceptionSize×perceptionSize
// pixels, one row at a time, running over each row only the probes
// whose band contains it:
//   - road: asphalt rows and lane-marking pixels in the lower half;
//   - sidewalk: pavement tone in the lower half;
//   - streetlight: the bright lamp head in the upper third;
//   - powerline: dark wire pixels spread across many columns of the sky
//     region (a single pole produces a narrow dark cluster; wires span
//     the frame);
//   - apartment: the brick facade above the horizon.
func perceive(img *render.Image) Features {
	w, h := img.W, img.H
	lampRows, skyRows, facadeRows := h/3, int(float64(h)*0.42), int(float64(h)*0.6)
	var (
		asphaltRows, whiteLinePx, yellowLinePx int
		sidewalkPx, lampPx, brickPx, darkCols  int
		darkCol                                [perceptionSize]bool
	)
	firstAsphaltRow := h
	for y := 0; y < h; y++ {
		rs, gs, bs := img.Row(y)
		gs, bs = gs[:len(rs)], bs[:len(rs)] // one bounds check per row
		if y < lampRows {
			for x, r := range rs {
				if isLamp(r, gs[x], bs[x]) {
					lampPx++
				}
			}
		}
		if y < skyRows {
			for x, r := range rs {
				if !darkCol[x] && isDark(r, gs[x], bs[x]) {
					darkCol[x] = true
					darkCols++
				}
			}
		}
		if y < facadeRows {
			for x, r := range rs {
				if isBrick(r, gs[x], bs[x]) {
					brickPx++
				}
			}
		}
		if y < h/2 {
			continue
		}
		rowAsphalt := 0
		for x, r := range rs {
			g, b := gs[x], bs[x]
			switch {
			case isAsphalt(r, g, b):
				rowAsphalt++
			case isWhiteLine(r, g, b):
				whiteLinePx++
			case isYellowLine(r, g, b):
				yellowLinePx++
			}
			if isSidewalkTone(r, g, b) {
				sidewalkPx++
			}
		}
		if rowAsphalt > w/8 {
			asphaltRows++
			firstAsphaltRow = min(firstAsphaltRow, y)
		}
	}
	f := Features{
		Road:        RoadNone,
		Sidewalk:    sidewalkPx > (w*h)/160,
		Streetlight: lampPx >= 2,
		Powerline:   darkCols > w*3/5,
		Apartment:   brickPx > (w*h)/120,
	}
	if asphaltRows >= h/10 {
		// Partial view: asphalt only appears in the bottom third.
		f.PartialRoad = firstAsphaltRow > h*2/3
		// Lane-marking cue: white dividers mean multilane; a yellow
		// center line with no white dividers means single-lane. A
		// partial strip with no legible markings defaults to
		// single-lane — exactly the ambiguity behind the paper's
		// single-lane over-prediction finding.
		f.Road = RoadSingle
		if whiteLinePx >= 3 && whiteLinePx > yellowLinePx/4 {
			f.Road = RoadMulti
		}
	}
	return f
}
