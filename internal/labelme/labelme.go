// Package labelme implements a LabelMe-compatible annotation layer: the
// JSON record format produced by the LabelMe tool the paper's student
// labeler used (§IV-A), conversion from scene ground truth, and a
// human-labeler model with controllable error injection (the paper's §V
// limitation: "human error in labeling training data could impact the
// reliability of the model").
package labelme

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"nbhd/internal/scene"
)

// ShapeType is the LabelMe geometry kind. This layer only uses
// rectangles, matching the bounding-box labels the detector trains on.
type ShapeType string

// ShapeRectangle is the LabelMe "rectangle" shape type.
const ShapeRectangle ShapeType = "rectangle"

// Shape is one labeled object in LabelMe's on-disk schema: a rectangle is
// two corner points in pixel coordinates.
type Shape struct {
	Label     string       `json:"label"`
	Points    [][2]float64 `json:"points"`
	ShapeType ShapeType    `json:"shape_type"`
}

// Record is one image's annotation file, mirroring LabelMe's JSON layout.
type Record struct {
	Version     string  `json:"version"`
	ImagePath   string  `json:"imagePath"`
	ImageWidth  int     `json:"imageWidth"`
	ImageHeight int     `json:"imageHeight"`
	Shapes      []Shape `json:"shapes"`
}

// FormatVersion is the LabelMe schema version this package emits.
const FormatVersion = "5.2.1"

// FromScene converts ground truth to a LabelMe record at the given pixel
// resolution.
func FromScene(s *scene.Scene, width, height int) (*Record, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("labelme: %w", err)
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("labelme: image size must be positive, got %dx%d", width, height)
	}
	rec := &Record{
		Version:     FormatVersion,
		ImagePath:   s.ID + ".png",
		ImageWidth:  width,
		ImageHeight: height,
		Shapes:      make([]Shape, 0, len(s.Objects)),
	}
	for _, o := range s.Objects {
		rec.Shapes = append(rec.Shapes, Shape{
			Label: o.Indicator.String(),
			Points: [][2]float64{
				{o.BBox.X0 * float64(width), o.BBox.Y0 * float64(height)},
				{o.BBox.X1 * float64(width), o.BBox.Y1 * float64(height)},
			},
			ShapeType: ShapeRectangle,
		})
	}
	return rec, nil
}

// Validate checks the record's structural invariants.
func (r *Record) Validate() error {
	if r.ImagePath == "" {
		return fmt.Errorf("labelme: record has empty imagePath")
	}
	if r.ImageWidth <= 0 || r.ImageHeight <= 0 {
		return fmt.Errorf("labelme: record %s has invalid size %dx%d", r.ImagePath, r.ImageWidth, r.ImageHeight)
	}
	for i, sh := range r.Shapes {
		if sh.ShapeType != ShapeRectangle {
			return fmt.Errorf("labelme: record %s shape %d: unsupported shape type %q", r.ImagePath, i, sh.ShapeType)
		}
		if len(sh.Points) != 2 {
			return fmt.Errorf("labelme: record %s shape %d: rectangle needs 2 points, got %d", r.ImagePath, i, len(sh.Points))
		}
		if _, err := scene.ParseIndicator(sh.Label); err != nil {
			return fmt.Errorf("labelme: record %s shape %d: %w", r.ImagePath, i, err)
		}
	}
	return nil
}

// Objects converts the record's shapes back into scene objects with
// normalized boxes. Corner order is normalized (LabelMe allows either
// diagonal).
func (r *Record) Objects() ([]scene.Object, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	out := make([]scene.Object, 0, len(r.Shapes))
	for _, sh := range r.Shapes {
		ind, err := scene.ParseIndicator(sh.Label)
		if err != nil {
			return nil, err
		}
		x0, y0 := sh.Points[0][0], sh.Points[0][1]
		x1, y1 := sh.Points[1][0], sh.Points[1][1]
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		box := scene.Rect{
			X0: x0 / float64(r.ImageWidth),
			Y0: y0 / float64(r.ImageHeight),
			X1: x1 / float64(r.ImageWidth),
			Y1: y1 / float64(r.ImageHeight),
		}.Clamp()
		if !box.Valid() {
			return nil, fmt.Errorf("labelme: record %s: shape %q degenerates to %+v", r.ImagePath, sh.Label, box)
		}
		out = append(out, scene.Object{Indicator: ind, BBox: box})
	}
	return out, nil
}

// Encode writes the record as LabelMe JSON.
func (r *Record) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("labelme: encode %s: %w", r.ImagePath, err)
	}
	return nil
}

// LabelerConfig models the human annotator's error process.
type LabelerConfig struct {
	// MissRate is the probability a true object goes unlabeled.
	MissRate float64
	// SpuriousRate is the probability a spurious extra label is added to
	// an image.
	SpuriousRate float64
	// BoxJitter is the maximum absolute normalized-coordinate
	// perturbation applied independently to each box edge.
	BoxJitter float64
	// Seed makes labeling deterministic.
	Seed int64
}

// Validate checks rate ranges.
func (c *LabelerConfig) Validate() error {
	for name, v := range map[string]float64{
		"miss rate":     c.MissRate,
		"spurious rate": c.SpuriousRate,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("labelme: %s %f outside [0,1]", name, v)
		}
	}
	if c.BoxJitter < 0 || c.BoxJitter > 0.2 {
		return fmt.Errorf("labelme: box jitter %f outside [0,0.2]", c.BoxJitter)
	}
	return nil
}

// Labeler simulates the paper's human annotator: a perfect labeler has
// zero rates; the §V limitation experiments raise them.
type Labeler struct {
	cfg LabelerConfig
	rng *rand.Rand
}

// NewLabeler constructs a labeler.
func NewLabeler(cfg LabelerConfig) (*Labeler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Labeler{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Annotate labels one scene, applying the configured error process.
func (l *Labeler) Annotate(s *scene.Scene, width, height int) (*Record, error) {
	rec, err := FromScene(s, width, height)
	if err != nil {
		return nil, err
	}
	kept := rec.Shapes[:0]
	for _, sh := range rec.Shapes {
		if l.rng.Float64() < l.cfg.MissRate {
			continue
		}
		if l.cfg.BoxJitter > 0 {
			for i := range sh.Points {
				sh.Points[i][0] += (l.rng.Float64()*2 - 1) * l.cfg.BoxJitter * float64(width)
				sh.Points[i][1] += (l.rng.Float64()*2 - 1) * l.cfg.BoxJitter * float64(height)
				sh.Points[i][0] = clampRange(sh.Points[i][0], 0, float64(width))
				sh.Points[i][1] = clampRange(sh.Points[i][1], 0, float64(height))
			}
		}
		kept = append(kept, sh)
	}
	rec.Shapes = kept
	if l.rng.Float64() < l.cfg.SpuriousRate {
		inds := scene.Indicators()
		ind := inds[l.rng.Intn(len(inds))]
		x := l.rng.Float64() * 0.7 * float64(width)
		y := l.rng.Float64() * 0.7 * float64(height)
		rec.Shapes = append(rec.Shapes, Shape{
			Label: ind.String(),
			Points: [][2]float64{
				{x, y},
				{x + 0.2*float64(width), y + 0.2*float64(height)},
			},
			ShapeType: ShapeRectangle,
		})
	}
	return rec, nil
}

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
