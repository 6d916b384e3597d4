package nn

import (
	"fmt"
	"math"

	"nbhd/internal/tensor"
)

// SigmoidInto applies the logistic function elementwise into dst, which
// must have the same element count as x (its contents are overwritten).
func SigmoidInto(dst, x *tensor.Tensor) error {
	if dst.NumElems() != x.NumElems() {
		return fmt.Errorf("nn: sigmoid dst has %d elems, want %d", dst.NumElems(), x.NumElems())
	}
	for i, v := range x.Data {
		dst.Data[i] = sigmoid32(v)
	}
	return nil
}

// Sigmoid32 is the scalar logistic function every sigmoid path in the
// detector shares (so decode and training round identically).
func Sigmoid32(v float32) float32 { return sigmoid32(v) }

func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// BCEWithLogitsInto computes the mean binary cross entropy between
// logits and 0/1 targets with an optional per-element weight (nil means
// uniform), and writes its gradient w.r.t. the logits into gradDst (same
// shape as logits, contents overwritten). It is the numerically stable
// fused form used for the detector's objectness and class heads.
func BCEWithLogitsInto(gradDst, logits, targets, weights *tensor.Tensor) (float64, error) {
	if !logits.SameShape(targets) {
		return 0, fmt.Errorf("nn: bce shape mismatch %v vs %v", logits.Shape, targets.Shape)
	}
	if weights != nil && !weights.SameShape(logits) {
		return 0, fmt.Errorf("nn: bce weight shape %v, want %v", weights.Shape, logits.Shape)
	}
	if gradDst.NumElems() != logits.NumElems() {
		return 0, fmt.Errorf("nn: bce grad dst has %d elems, want %d", gradDst.NumElems(), logits.NumElems())
	}
	n := float64(logits.NumElems())
	var loss float64
	for i, z := range logits.Data {
		t := targets.Data[i]
		w := float32(1)
		if weights != nil {
			w = weights.Data[i]
		}
		// loss = max(z,0) - z*t + log(1+exp(-|z|))
		zf := float64(z)
		l := math.Max(zf, 0) - zf*float64(t) + math.Log1p(expPortable(-math.Abs(zf)))
		loss += float64(w) * l
		gradDst.Data[i] = w * (sigmoid32(z) - t) / float32(n)
	}
	return loss / n, nil
}

// expPortable is math.Exp's portable algorithm (FreeBSD's e_exp.c, as
// in Go's math/exp.go). math.Exp runs assembly on amd64, whose result
// can differ from this in the last bits, so a float64 loss summed from it
// would print different digits on 386 and amd64 for the same weights.
func expPortable(x float64) float64 {
	const (
		ln2Hi     = 6.93147180369123816490e-01
		ln2Lo     = 1.90821492927058770002e-10
		log2e     = 1.44269504088896338700e+00
		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
		nearZero  = 1.0 / (1 << 28)

		p1 = 1.66666666666666657415e-01
		p2 = -2.77777777770155933842e-03
		p3 = 6.61375632143793436117e-05
		p4 = -1.65339022054652515390e-06
		p5 = 4.13813679705723846039e-08
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x > overflow:
		return math.Inf(1)
	case x < underflow: // -Inf included
		return 0
	case -nearZero < x && x < nearZero:
		return 1 + x
	}
	// Reduce to r = hi - lo in [-ln2/2, ln2/2], then exp(x) = 2^k·exp(r).
	k := int(log2e*x + math.Copysign(0.5, x))
	hi := x - float64(k)*ln2Hi
	lo := float64(k) * ln2Lo
	r := hi - lo
	t := r * r
	c := r - t*(p1+t*(p2+t*(p3+t*(p4+t*p5))))
	return math.Ldexp(1-((lo-(r*c)/(2-c))-hi), k)
}

// MSEInto computes the mean squared error with an optional per-element
// weight (nil means uniform), and writes its gradient w.r.t. the
// predictions into gradDst (same shape as pred, contents overwritten).
func MSEInto(gradDst, pred, target, weights *tensor.Tensor) (float64, error) {
	if !pred.SameShape(target) {
		return 0, fmt.Errorf("nn: mse shape mismatch %v vs %v", pred.Shape, target.Shape)
	}
	if weights != nil && !weights.SameShape(pred) {
		return 0, fmt.Errorf("nn: mse weight shape %v, want %v", weights.Shape, pred.Shape)
	}
	if gradDst.NumElems() != pred.NumElems() {
		return 0, fmt.Errorf("nn: mse grad dst has %d elems, want %d", gradDst.NumElems(), pred.NumElems())
	}
	n := float64(pred.NumElems())
	var loss float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		w := float32(1)
		if weights != nil {
			w = weights.Data[i]
		}
		loss += float64(w) * float64(d) * float64(d)
		gradDst.Data[i] = w * 2 * d / float32(n)
	}
	return loss / n, nil
}
