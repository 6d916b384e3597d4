package nn

import (
	"fmt"
	"math"

	"nbhd/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers
	// zero them between batches).
	Step(params []*Param) error
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m, v map[*Param]*tensor.Tensor
}

// NewAdam constructs Adam with the usual defaults for zero-valued
// hyperparameters (beta1 0.9, beta2 0.999, eps 1e-8).
func NewAdam(lr, beta1, beta2, eps float64) (*Adam, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: adam lr must be positive, got %f", lr)
	}
	if beta1 == 0 {
		beta1 = 0.9
	}
	if beta2 == 0 {
		beta2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	if beta1 < 0 || beta1 >= 1 || beta2 < 0 || beta2 >= 1 {
		return nil, fmt.Errorf("nn: adam betas (%f,%f) outside [0,1)", beta1, beta2)
	}
	return &Adam{
		LR: lr, Beta1: beta1, Beta2: beta2, Eps: eps,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}, nil
}

// Step applies one Adam update.
func (a *Adam) Step(params []*Param) error {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.MustNew(p.Value.Shape...)
			a.m[p] = m
			a.v[p] = tensor.MustNew(p.Value.Shape...)
		}
		v := a.v[p]
		b1 := float32(a.Beta1)
		b2 := float32(a.Beta2)
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			v.Data[i] = b2*v.Data[i] + (1-b2)*g*g
			mHat := float64(m.Data[i]) / bc1
			vHat := float64(v.Data[i]) / bc2
			p.Value.Data[i] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
		}
	}
	return nil
}

// ClipGradNorm scales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. maxNorm must be positive.
func ClipGradNorm(params []*Param, maxNorm float64) (float64, error) {
	if maxNorm <= 0 {
		return 0, fmt.Errorf("nn: clip max norm must be positive, got %f", maxNorm)
	}
	var sq float64
	for _, p := range params {
		n := p.Grad.L2Norm()
		sq += n * n
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm, nil
}
