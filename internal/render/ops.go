package render

import (
	"fmt"

	"nbhd/internal/scene"
)

// Rotate90 returns the image rotated clockwise by k*90 degrees (k mod 4).
// The paper's Fig. 2 augmentation ablation rotates training images by 90,
// 180, and 270 degrees.
func (m *Image) Rotate90(k int) *Image {
	k = ((k % 4) + 4) % 4
	if k == 0 {
		return m.Clone()
	}
	var out *Image
	if k == 2 {
		out = MustNewImage(m.W, m.H)
	} else {
		out = MustNewImage(m.H, m.W)
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var nx, ny int
			switch k {
			case 1: // 90° clockwise
				nx, ny = m.H-1-y, x
			case 2: // 180°
				nx, ny = m.W-1-x, m.H-1-y
			case 3: // 270° clockwise
				nx, ny = y, m.W-1-x
			}
			for c := 0; c < Channels; c++ {
				out.Set(nx, ny, c, m.At(x, y, c))
			}
		}
	}
	return out
}

// Crop extracts the normalized-coordinate region and returns it as a new
// image at the region's pixel size. The region must be valid and
// non-degenerate in pixels.
func (m *Image) Crop(r scene.Rect) (*Image, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("render: crop rect %+v invalid", r)
	}
	x0, y0 := px(r.X0, m.W), px(r.Y0, m.H)
	x1, y1 := px(r.X1, m.W), px(r.Y1, m.H)
	if x1 <= x0 || y1 <= y0 {
		return nil, fmt.Errorf("render: crop rect %+v degenerate at %dx%d", r, m.W, m.H)
	}
	out := MustNewImage(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			for c := 0; c < Channels; c++ {
				out.Set(x-x0, y-y0, c, m.At(x, y, c))
			}
		}
	}
	return out, nil
}

// FillRect paints the pixel rectangle [x0,x1)×[y0,y1) with a solid
// color, clamping the bounds to the image (a full-frame or larger rect
// fills everything; an inverted or empty rect fills nothing). The
// degradation suite's occluders are FillRects.
func (m *Image) FillRect(x0, y0, x1, y1 int, r, g, b float32) {
	for y := max(y0, 0); y < min(y1, m.H); y++ {
		m.fillRow(y, x0, x1, r, g, b)
	}
}

// RotateRect maps a normalized bbox through the same clockwise k*90°
// rotation as Rotate90, so ground-truth boxes stay aligned with augmented
// images.
func RotateRect(r scene.Rect, k int) scene.Rect {
	k = ((k % 4) + 4) % 4
	switch k {
	case 1:
		return scene.Rect{X0: 1 - r.Y1, Y0: r.X0, X1: 1 - r.Y0, Y1: r.X1}
	case 2:
		return scene.Rect{X0: 1 - r.X1, Y0: 1 - r.Y1, X1: 1 - r.X0, Y1: 1 - r.Y0}
	case 3:
		return scene.Rect{X0: r.Y0, Y0: 1 - r.X1, X1: r.Y1, Y1: 1 - r.X0}
	default:
		return r
	}
}
