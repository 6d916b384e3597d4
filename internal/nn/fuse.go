package nn

import (
	"fmt"
	"math"

	"nbhd/internal/tensor"
)

// Fused inference. NewSequential plans the network once: every Conv2D
// absorbs the LeakyReLU that follows it, then a MaxPool2D(2, stride 2)
// after that, into its epilogue. Sequential.Infer and InferQuantized
// then run each such block as one convPass that, per sample and while
// the GEMM product is in cache, adds the bias, applies the activation
// and writes the 2×2 maxima straight into the pooled output — where the
// layer-by-layer chain re-reads every conv output once per layer. The
// result is the chain's, bit for bit: the same float32 add, the same
// alpha·v multiply, the same first-wins comparisons.

// epilogue is what a conv stage applies to each sample's GEMM product
// after the bias. The zero value adds the bias only.
type epilogue struct {
	// leaky is the fused LeakyReLU, nil for none.
	leaky *LeakyReLU
	// pool fuses a 2×2 stride-2 max pool.
	pool bool
}

// finish adds bias to one sample's GEMM product conv (OutChannels,
// outH, outW) and applies the activation: in place when the epilogue
// does not pool, else into dst (OutChannels, outH/2, outW/2), dropping
// an odd final row and column as MaxPool2D does.
func (e epilogue) finish(bias, conv, dst []float32, outH, outW int) {
	// Alpha 1 makes leaky the identity, bit for bit.
	alpha := float32(1)
	if e.leaky != nil {
		alpha = e.leaky.Alpha
	}
	oHW, pH, pW := outH*outW, outH/2, outW/2
	for oc, bv := range bias {
		ch := conv[oc*oHW : (oc+1)*oHW]
		if !e.pool {
			for i, v := range ch {
				ch[i] = leaky(v+bv, alpha)
			}
			continue
		}
		for oy := 0; oy < pH; oy++ {
			top := ch[2*oy*outW : 2*oy*outW+2*pW]
			bot := ch[(2*oy+1)*outW : (2*oy+1)*outW+2*pW]
			orow := dst[(oc*pH+oy)*pW : (oc*pH+oy+1)*pW]
			for ox := range orow {
				best := leaky(top[2*ox]+bv, alpha)
				best = firstMax(best, leaky(top[2*ox+1]+bv, alpha))
				best = firstMax(best, leaky(bot[2*ox]+bv, alpha))
				orow[ox] = firstMax(best, leaky(bot[2*ox+1]+bv, alpha))
			}
		}
	}
}

// leaky is LeakyReLU's rule, v or alpha·v when v < 0, selected on the
// bits so the compiler emits a conditional move: on activations, whose
// signs are coin flips, a branch mispredicts half the time.
func leaky(v, alpha float32) float32 {
	b, neg := math.Float32bits(v), math.Float32bits(alpha*v)
	if v < 0 {
		b = neg
	}
	return math.Float32frombits(b)
}

// firstMax returns v if v > best, else best: folded over a window in
// reading order it keeps the first of tied values, so +0 against −0
// keeps whichever came first, and a NaN never replaces the best — where
// Go's builtin max prefers +0 and propagates NaN. It selects on the
// bits so the compiler emits a conditional move rather than a branch.
func firstMax(best, v float32) float32 {
	b, n := math.Float32bits(best), math.Float32bits(v)
	if v > best {
		b = n
	}
	return math.Float32frombits(b)
}

// stage is one step of the inference plan: a Conv2D with its fused
// epilogue, or any other layer on its own.
type stage struct {
	// first is the index of the stage's first layer, for errors.
	first int
	layer Layer
	// quant is the layer's int8 path, nil when it has none.
	quant QuantizedLayer
	// conv is the stage's convolution, nil for a plain layer.
	conv *Conv2D
	epi  epilogue
}

// planInference groups layers into stages, fusing every Conv2D →
// [LeakyReLU] → [MaxPool2D(2, stride 2)] run into one conv stage.
func planInference(layers []Layer) []stage {
	plan := make([]stage, 0, len(layers))
	for i := 0; i < len(layers); i++ {
		st := stage{first: i, layer: layers[i]}
		st.quant, _ = layers[i].(QuantizedLayer)
		next := func() Layer {
			if i+1 < len(layers) {
				return layers[i+1]
			}
			return nil
		}
		if c, ok := layers[i].(*Conv2D); ok {
			st.conv = c
			if r, ok := next().(*LeakyReLU); ok {
				st.epi.leaky = r
				i++
			}
			if p, ok := next().(*MaxPool2D); ok && p.Size == 2 && p.Stride == 2 {
				st.epi.pool = true
				i++
			}
		}
		plan = append(plan, st)
	}
	return plan
}

// infer runs x through the plan on the f32 or int8 path, recycling each
// intermediate as soon as the next stage has consumed it.
func (s *Sequential) infer(x *tensor.Tensor, quantized bool) (*tensor.Tensor, error) {
	cur := x
	for _, st := range s.plan {
		var y *tensor.Tensor
		var err error
		switch {
		case st.conv != nil:
			y, err = st.conv.infer(cur, st.epi, quantized)
		case quantized && st.quant != nil:
			y, err = st.quant.InferQuantized(cur)
		default:
			y, err = st.layer.Infer(cur)
		}
		if err != nil {
			if cur != x {
				tensor.PutScratch(cur)
			}
			path := "infer"
			if quantized {
				path = "infer quantized"
			}
			return nil, fmt.Errorf("nn: layer %d %s: %w", st.first, path, err)
		}
		if y != cur && cur != x {
			tensor.PutScratch(cur)
		}
		cur = y
	}
	return cur, nil
}
