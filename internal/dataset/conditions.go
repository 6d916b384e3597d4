package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"nbhd/internal/randsrc"
	"nbhd/internal/render"
)

// Capture conditions degrade rendered frames the way real collection
// degrades photography: night drops contrast and gamma-crushes shadows,
// occlusion drops seeded rectangular occluders over the view, noise adds
// Gaussian sensor noise. Every condition is a pure function of
// (frame, seed): it never mutates its input, the same inputs always
// produce byte-identical output, and every output pixel stays in [0,1].
// None of the ops move geometry, so ground-truth boxes are preserved —
// the train-clean/test-degraded protocol the robustness experiment
// sweeps leans on all three guarantees.

// ConditionClean is the identity condition: the frame as rendered. An
// empty condition name means the same thing at the corpus level; the
// explicit name exists so an evaluation sweep can override a degraded
// corpus back to clean frames.
const ConditionClean = "clean"

// conditionOps maps condition names to their (frame, seed) ops, each
// degrading a copy of the clean frame in place. ConditionClean is
// registered separately (it is the identity and skips the copy).
var conditionOps = map[string]func(out *render.Image, seed int64){
	"night":     nightOp,
	"occlusion": occlusionOp,
	"noise":     noiseOp,
}

// Conditions lists the registered capture conditions, sorted, with
// ConditionClean first.
func Conditions() []string {
	out := make([]string, 0, len(conditionOps)+1)
	for name := range conditionOps {
		out = append(out, name)
	}
	sort.Strings(out)
	return append([]string{ConditionClean}, out...)
}

// ValidCondition reports whether name is a registered capture condition.
// The empty name is valid and means clean.
func ValidCondition(name string) bool {
	if name == "" || name == ConditionClean {
		return true
	}
	_, ok := conditionOps[name]
	return ok
}

// ResolveCondition names the capture condition an evaluation-time
// override cond selects on a corpus built under the corpus condition:
// empty inherits the corpus's condition, and the result is
// ConditionClean for clean frames, never empty. Two overrides select
// the same frames exactly when they resolve to the same name.
func ResolveCondition(corpus, cond string) string {
	if cond == "" {
		cond = corpus
	}
	if cond == "" {
		return ConditionClean
	}
	return cond
}

// ApplyCondition returns the frame degraded under the named capture
// condition, deterministic in (frame, seed). The input image is never
// mutated; clean (or empty) returns it unchanged without copying. An
// unknown name is an error listing the supported conditions.
func ApplyCondition(name string, img *render.Image, seed int64) (*render.Image, error) {
	return applyCondition(name, img, nil, seed)
}

// applyCondition is ApplyCondition writing into dst, which must match
// img's size; a nil dst allocates the output.
func applyCondition(name string, img, dst *render.Image, seed int64) (*render.Image, error) {
	if name == "" || name == ConditionClean {
		return img, nil
	}
	op, ok := conditionOps[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown capture condition %q (have %v)", name, Conditions())
	}
	if dst == nil {
		dst = img.Clone()
	} else if dst.W != img.W || dst.H != img.H || len(dst.Pix) != len(img.Pix) {
		return nil, fmt.Errorf("dataset: condition %s: %dx%d output for a %dx%d frame", name, dst.W, dst.H, img.W, img.H)
	} else {
		copy(dst.Pix, img.Pix)
	}
	op(dst, seed)
	return dst, nil
}

// ConditionSeed derives the per-frame degradation seed from the study
// seed, the frame's scene ID, and the condition name, so every frame
// gets an independent but reproducible degradation stream and the same
// frame degrades identically no matter which cache tier or render path
// produced it.
func ConditionSeed(seed int64, frameID, condition string) int64 {
	h := fnv.New64a()
	h.Write([]byte(frameID))
	h.Write([]byte{0})
	h.Write([]byte(condition))
	return seed ^ int64(h.Sum64())
}

// nightOp simulates low-light capture: a gamma crush that buries shadow
// detail, a strong exposure drop, and a cool blue cast. The gamma and
// gain jitter per frame within a narrow band so a night corpus is not
// one uniform filter.
func nightOp(out *render.Image, seed int64) {
	rng := rand.New(randsrc.New(seed))
	gamma := 1.8 + 0.4*rng.Float64()
	gain := float32(0.30 + 0.10*rng.Float64())
	// Per-channel cast: dim red, hold green, lift blue.
	cast := [render.Channels]float32{0.88, 0.96, 1.14}
	plane := out.W * out.H
	for c := 0; c < render.Channels; c++ {
		cg := gain * cast[c]
		for i := c * plane; i < (c+1)*plane; i++ {
			v := float64(out.Pix[i])
			out.Pix[i] = clampPix(cg * float32(pow(v, gamma)))
		}
	}
}

// occlusionOp drops 1-3 seeded dark rectangles over the frame, each
// covering 15-40% of a side — the passing-truck / smudged-lens failure
// mode. Rect placement may cover the whole frame in the degenerate
// small-image case; pixels stay in range regardless.
func occlusionOp(out *render.Image, seed int64) {
	rng := rand.New(randsrc.New(seed))
	n := 1 + rng.Intn(3)
	for k := 0; k < n; k++ {
		w := int(float64(out.W) * (0.15 + 0.25*rng.Float64()))
		h := int(float64(out.H) * (0.15 + 0.25*rng.Float64()))
		if w < 1 {
			w = 1
		}
		if h < 1 {
			h = 1
		}
		x0 := rng.Intn(out.W)
		y0 := rng.Intn(out.H)
		shade := float32(0.08 + 0.08*rng.Float64())
		out.FillRect(x0, y0, x0+w, y0+h, shade, shade, shade*1.1)
	}
}

// noiseOp adds Gaussian sensor noise with a per-frame sigma in
// [0.05,0.10] — a fixed-sigma sensor model, unlike the Fig. 3 AddNoise
// path which targets an SNR relative to signal power.
func noiseOp(out *render.Image, seed int64) {
	rng := rand.New(randsrc.New(seed))
	sigma := 0.05 + 0.05*rng.Float64()
	for i, v := range out.Pix {
		out.Pix[i] = clampPix(v + float32(sigma*rng.NormFloat64()))
	}
}

// clampPix clamps a pixel value to [0,1].
func clampPix(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// pow is math.Pow restricted to the pixel domain [0,1].
func pow(v, p float64) float64 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 1
	}
	return math.Pow(v, p)
}
