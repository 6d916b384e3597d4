package dataset

import (
	"fmt"
	"math/rand"

	"nbhd/internal/randsrc"
	"nbhd/internal/render"
	"nbhd/internal/scene"
)

// AugmentOp enumerates the paper's Fig. 2 augmentation operations.
type AugmentOp int

const (
	// AugRotate90 rotates the image and its boxes 90° clockwise.
	AugRotate90 AugmentOp = iota + 1
	// AugRotate180 rotates 180°.
	AugRotate180
	// AugRotate270 rotates 270° clockwise.
	AugRotate270
	// AugCrop randomly crops a region covering roughly 30% of the object
	// image area (per §IV-B2) and rescales it to the original size.
	AugCrop
)

// String names the op for example-ID suffixes.
func (op AugmentOp) String() string {
	switch op {
	case AugRotate90:
		return "rot90"
	case AugRotate180:
		return "rot180"
	case AugRotate270:
		return "rot270"
	case AugCrop:
		return "crop"
	default:
		return fmt.Sprintf("AugmentOp(%d)", int(op))
	}
}

// FlippingOps returns the paper's first augmentation arm ("flipped the
// indicator images in 90°, 180°, and 270°").
func FlippingOps() []AugmentOp {
	return []AugmentOp{AugRotate90, AugRotate180, AugRotate270}
}

// FlippingAndCroppingOps returns the paper's second arm (flips plus
// random 30%-area crops).
func FlippingAndCroppingOps() []AugmentOp {
	return append(FlippingOps(), AugCrop)
}

// Augment derives new examples from the originals by applying every op to
// every example, appending them after the originals (the paper "increases
// the training samples"). Crop randomness is deterministic in the seed.
// Augmented examples whose crop leaves no valid object boxes are kept
// with empty ground truth (negative samples).
func Augment(examples []Example, ops []AugmentOp, seed int64) ([]Example, error) {
	out := make([]Example, 0, len(examples)*(1+len(ops)))
	out = append(out, examples...)
	rng := rand.New(randsrc.New(seed))
	for _, ex := range examples {
		for _, op := range ops {
			aug, err := applyOp(&ex, op, rng)
			if err != nil {
				return nil, fmt.Errorf("dataset: augment %s with %s: %w", ex.ID, op, err)
			}
			out = append(out, *aug)
		}
	}
	return out, nil
}

func applyOp(ex *Example, op AugmentOp, rng *rand.Rand) (*Example, error) {
	switch op {
	case AugRotate90, AugRotate180, AugRotate270:
		k := int(op) // enum values line up with quarter-turn counts
		img := ex.Image.Rotate90(k)
		objs := make([]scene.Object, 0, len(ex.Objects))
		for _, o := range ex.Objects {
			o.BBox = render.RotateRect(o.BBox, k)
			objs = append(objs, o)
		}
		return &Example{ID: ex.ID + "#" + op.String(), Image: img, Objects: objs}, nil
	case AugCrop:
		return cropExample(ex, rng)
	default:
		return nil, fmt.Errorf("unknown augment op %d", int(op))
	}
}

// cropExample crops a random window of ~30% area (side ≈ sqrt(0.3)) and
// rescales to the original resolution, remapping ground-truth boxes. Boxes
// that fall mostly outside the window are dropped.
func cropExample(ex *Example, rng *rand.Rand) (*Example, error) {
	const side = 0.5477 // sqrt(0.30)
	x0 := rng.Float64() * (1 - side)
	y0 := rng.Float64() * (1 - side)
	window := scene.Rect{X0: x0, Y0: y0, X1: x0 + side, Y1: y0 + side}
	cropped, err := ex.Image.Crop(window)
	if err != nil {
		return nil, err
	}
	img, err := cropped.Resize(ex.Image.W, ex.Image.H)
	if err != nil {
		return nil, err
	}
	var objs []scene.Object
	for _, o := range ex.Objects {
		inter := o.BBox.Intersect(window)
		if inter.Area() < o.BBox.Area()*0.25 {
			continue // object mostly cropped away
		}
		remapped := scene.Rect{
			X0: (inter.X0 - window.X0) / side,
			Y0: (inter.Y0 - window.Y0) / side,
			X1: (inter.X1 - window.X0) / side,
			Y1: (inter.Y1 - window.Y0) / side,
		}.Clamp()
		if !remapped.Valid() {
			continue
		}
		o.BBox = remapped
		objs = append(objs, o)
	}
	return &Example{ID: ex.ID + "#crop", Image: img, Objects: objs}, nil
}

// AddNoise returns copies of the examples with additive white Gaussian
// noise at the given SNR in dB (Fig. 3 protocol). Ground truth is shared
// with the originals.
func AddNoise(examples []Example, snrDB float64, seed int64) []Example {
	out := make([]Example, len(examples))
	for i, ex := range examples {
		out[i] = Example{
			ID:      fmt.Sprintf("%s#snr%g", ex.ID, snrDB),
			Image:   ex.Image.AddGaussianNoiseSNR(snrDB, seed+int64(i)),
			Objects: ex.Objects,
		}
	}
	return out
}

// SNRLevels returns the paper's Fig. 3 sweep: 5..30 dB in 5 dB steps.
func SNRLevels() []float64 {
	return []float64{5, 10, 15, 20, 25, 30}
}
