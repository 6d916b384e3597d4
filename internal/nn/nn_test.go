package nn

import (
	"math"
	"math/rand"
	"testing"

	"nbhd/internal/tensor"
)

// numericalGrad estimates d(loss)/d(data[i]) by central differences for a
// scalar-valued function of the network output.
func numericalGrad(data []float32, i int, eps float32, eval func() float64) float64 {
	orig := data[i]
	data[i] = orig + eps
	lp := eval()
	data[i] = orig - eps
	lm := eval()
	data[i] = orig
	return (lp - lm) / (2 * float64(eps))
}

// checkLayerGradients verifies a layer's analytic input and parameter
// gradients against central differences using an MSE loss to a random
// target.
func checkLayerGradients(t *testing.T, layer Layer, input *tensor.Tensor, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	out, err := layer.Forward(input)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	target := tensor.MustNew(out.Shape...)
	target.UniformInit(1, rng)
	scratch := tensor.MustNew(out.Shape...)

	eval := func() float64 {
		o, err := layer.Forward(input)
		if err != nil {
			t.Fatalf("forward in eval: %v", err)
		}
		loss, err := MSEInto(scratch, o, target, nil)
		if err != nil {
			t.Fatalf("mse: %v", err)
		}
		return loss
	}

	// Analytic pass.
	out, err = layer.Forward(input)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	lossGrad := tensor.MustNew(out.Shape...)
	if _, err := MSEInto(lossGrad, out, target, nil); err != nil {
		t.Fatalf("mse: %v", err)
	}
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	gradIn, err := layer.Backward(lossGrad)
	if err != nil {
		t.Fatalf("backward: %v", err)
	}

	const eps = 1e-2
	const tol = 2e-2
	compare := func(name string, analytic float64, data []float32, i int) {
		numeric := numericalGrad(data, i, eps, eval)
		diff := math.Abs(analytic - numeric)
		scale := math.Max(math.Abs(analytic)+math.Abs(numeric), 1e-4)
		if diff/scale > tol && diff > 1e-4 {
			t.Errorf("%s[%d]: analytic %g vs numeric %g", name, i, analytic, numeric)
		}
	}
	// Sample a handful of input coordinates.
	for trial := 0; trial < 8; trial++ {
		i := rng.Intn(len(input.Data))
		compare("input", float64(gradIn.Data[i]), input.Data, i)
	}
	// And a handful of each parameter's coordinates.
	for _, p := range layer.Params() {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(len(p.Value.Data))
			compare(p.Name, float64(p.Grad.Data[i]), p.Value.Data, i)
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv, err := NewConv2D(2, 3, 3, 1, 1, rng)
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	input := tensor.MustNew(2, 2, 5, 5)
	input.UniformInit(1, rng)
	checkLayerGradients(t, conv, input, 2)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv, err := NewConv2D(1, 2, 3, 2, 1, rng)
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	input := tensor.MustNew(1, 1, 7, 7)
	input.UniformInit(1, rng)
	checkLayerGradients(t, conv, input, 4)
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lin, err := NewLinear(6, 4, rng)
	if err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	input := tensor.MustNew(3, 6)
	input.UniformInit(1, rng)
	checkLayerGradients(t, lin, input, 6)
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	relu, err := NewLeakyReLU(0.1)
	if err != nil {
		t.Fatalf("NewLeakyReLU: %v", err)
	}
	input := tensor.MustNew(2, 3, 4, 4)
	input.UniformInit(1, rng)
	// Nudge values away from the kink at 0 where numerical gradients lie.
	for i, v := range input.Data {
		if v > -0.05 && v < 0.05 {
			input.Data[i] = 0.1
		}
	}
	checkLayerGradients(t, relu, input, 8)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatalf("NewMaxPool2D: %v", err)
	}
	input := tensor.MustNew(1, 2, 6, 6)
	input.UniformInit(1, rng)
	checkLayerGradients(t, pool, input, 10)
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	conv, err := NewConv2D(3, 8, 3, 1, 1, rng)
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	x := tensor.MustNew(2, 3, 16, 16)
	out, err := conv.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []int{2, 8, 16, 16}
	for i, d := range want {
		if out.Shape[i] != d {
			t.Fatalf("output shape %v, want %v", out.Shape, want)
		}
	}
	if conv.OutSize(16) != 16 {
		t.Errorf("OutSize(16) = %d", conv.OutSize(16))
	}
}

func TestConv2DValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	if _, err := NewConv2D(0, 4, 3, 1, 1, rng); err == nil {
		t.Error("zero in-channels accepted")
	}
	if _, err := NewConv2D(3, 4, 0, 1, 1, rng); err == nil {
		t.Error("zero kernel accepted")
	}
	if _, err := NewConv2D(3, 4, 3, 0, 1, rng); err == nil {
		t.Error("zero stride accepted")
	}
	conv, err := NewConv2D(3, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	bad := tensor.MustNew(1, 2, 8, 8) // wrong channel count
	if _, err := conv.Forward(bad); err == nil {
		t.Error("wrong channel count accepted")
	}
	if _, err := conv.Backward(tensor.MustNew(1, 4, 8, 8)); err == nil {
		t.Error("backward before forward accepted")
	}
}

func TestMaxPoolHalvesSize(t *testing.T) {
	pool, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatalf("NewMaxPool2D: %v", err)
	}
	x, _ := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, err := pool.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Shape[2] != 2 || out.Shape[3] != 2 {
		t.Fatalf("pooled shape %v", out.Shape)
	}
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("pooled[%d] = %f, want %f", i, out.Data[i], w)
		}
	}
	// An input narrower than the window has no output, on either path
	// and fused behind a conv alike.
	narrow := tensor.MustNew(2, 1, 1, 4)
	if _, err := pool.Forward(narrow); err == nil {
		t.Error("Forward pooled a 1-row input")
	}
	if _, err := pool.Infer(narrow); err == nil {
		t.Error("Infer pooled a 1-row input")
	}
	conv, err := NewConv2D(1, 1, 1, 1, 0, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSequential(conv, pool).Infer(narrow); err == nil {
		t.Error("fused conv → pool pooled a 1-row input")
	}
}

func TestSequentialForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	conv, err := NewConv2D(1, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	relu, err := NewLeakyReLU(0.1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := NewSequential(conv, relu, pool)
	if n := len(net.Params()); n != 2 {
		t.Errorf("%d params, want the conv's weight and bias", n)
	}
	x := tensor.MustNew(2, 1, 8, 8)
	x.UniformInit(1, rng)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Shape[1] != 4 || out.Shape[2] != 4 {
		t.Fatalf("net output shape %v", out.Shape)
	}
	grad := tensor.MustNew(out.Shape...)
	grad.Fill(1)
	net.ZeroGrads()
	gin, err := net.Backward(grad)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if !gin.SameShape(x) {
		t.Errorf("input grad shape %v", gin.Shape)
	}
	// Parameter gradients populated.
	var nonzero bool
	for _, p := range net.Params() {
		if p.Grad.L2Norm() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("all parameter gradients are zero")
	}
}

func TestBCEWithLogits(t *testing.T) {
	logits, _ := tensor.FromSlice([]float32{0, 2, -2}, 3)
	targets, _ := tensor.FromSlice([]float32{0, 1, 0}, 3)
	grad := tensor.MustNew(3)
	loss, err := BCEWithLogitsInto(grad, logits, targets, nil)
	if err != nil {
		t.Fatalf("BCE: %v", err)
	}
	// Hand-computed: ln2 for z=0,t=0; softplus(-2) for z=2,t=1;
	// softplus(-2) for z=-2,t=0.
	want := (math.Log(2) + math.Log1p(math.Exp(-2))*2) / 3
	if math.Abs(loss-want) > 1e-6 {
		t.Errorf("loss = %f, want %f", loss, want)
	}
	// Gradient: (sigmoid(z)-t)/n.
	if g := grad.Data[0]; math.Abs(float64(g)-0.5/3) > 1e-6 {
		t.Errorf("grad[0] = %f", g)
	}
	// Mismatched shapes rejected.
	bad := tensor.MustNew(2)
	if _, err := BCEWithLogitsInto(grad, logits, bad, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := BCEWithLogitsInto(grad, logits, targets, bad); err == nil {
		t.Error("weight shape mismatch accepted")
	}
}

func TestBCEGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	logits := tensor.MustNew(6)
	logits.UniformInit(2, rng)
	targets, _ := tensor.FromSlice([]float32{1, 0, 1, 0, 1, 0}, 6)
	grad := tensor.MustNew(6)
	if _, err := BCEWithLogitsInto(grad, logits, targets, nil); err != nil {
		t.Fatalf("BCE: %v", err)
	}
	scratch := tensor.MustNew(6)
	for i := range logits.Data {
		numeric := numericalGrad(logits.Data, i, 1e-3, func() float64 {
			l, err := BCEWithLogitsInto(scratch, logits, targets, nil)
			if err != nil {
				t.Fatalf("BCE: %v", err)
			}
			return l
		})
		if math.Abs(numeric-float64(grad.Data[i])) > 1e-3 {
			t.Errorf("bce grad[%d]: analytic %f vs numeric %f", i, grad.Data[i], numeric)
		}
	}
}

func TestMSE(t *testing.T) {
	pred, _ := tensor.FromSlice([]float32{1, 2}, 2)
	target, _ := tensor.FromSlice([]float32{0, 4}, 2)
	grad := tensor.MustNew(2)
	loss, err := MSEInto(grad, pred, target, nil)
	if err != nil {
		t.Fatalf("MSE: %v", err)
	}
	if math.Abs(loss-(1+4)/2.0) > 1e-6 {
		t.Errorf("loss = %f", loss)
	}
	if math.Abs(float64(grad.Data[0])-1) > 1e-6 || math.Abs(float64(grad.Data[1])+2) > 1e-6 {
		t.Errorf("grad = %v", grad.Data)
	}
	// Weighted: zero weight removes an element's contribution.
	w, _ := tensor.FromSlice([]float32{1, 0}, 2)
	loss, err = MSEInto(grad, pred, target, w)
	if err != nil {
		t.Fatalf("MSE: %v", err)
	}
	if math.Abs(loss-0.5) > 1e-6 {
		t.Errorf("weighted loss = %f", loss)
	}
	if grad.Data[1] != 0 {
		t.Errorf("weighted grad[1] = %f", grad.Data[1])
	}
}

func TestSigmoid(t *testing.T) {
	x, _ := tensor.FromSlice([]float32{0, 100, -100}, 3)
	s := tensor.MustNew(3)
	if err := SigmoidInto(s, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s.Data[0])-0.5) > 1e-6 {
		t.Errorf("sigmoid(0) = %f", s.Data[0])
	}
	if s.Data[1] < 0.999 || s.Data[2] > 0.001 {
		t.Errorf("sigmoid saturation wrong: %v", s.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam; expect w -> 3.
	opt, err := NewAdam(0.1, 0, 0, 0)
	if err != nil {
		t.Fatalf("NewAdam: %v", err)
	}
	p, err := newParam("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		if err := opt.Step([]*Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(float64(p.Value.Data[0])-3) > 0.05 {
		t.Errorf("adam converged to %f, want 3", p.Value.Data[0])
	}
}

func TestAdamValidation(t *testing.T) {
	if _, err := NewAdam(0, 0, 0, 0); err == nil {
		t.Error("zero lr accepted")
	}
	if _, err := NewAdam(0.1, -0.5, 0, 0); err == nil {
		t.Error("negative beta accepted")
	}
}

func TestClipGradNorm(t *testing.T) {
	p, err := newParam("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4 // norm 5
	norm, err := ClipGradNorm([]*Param{p}, 1)
	if err != nil {
		t.Fatalf("ClipGradNorm: %v", err)
	}
	if math.Abs(norm-5) > 1e-6 {
		t.Errorf("pre-clip norm = %f", norm)
	}
	if after := p.Grad.L2Norm(); math.Abs(after-1) > 1e-5 {
		t.Errorf("post-clip norm = %f", after)
	}
	// Below threshold: untouched.
	norm, err = ClipGradNorm([]*Param{p}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("second norm = %f", norm)
	}
	if _, err := ClipGradNorm(nil, 0); err == nil {
		t.Error("zero max norm accepted")
	}
}

func TestTrainTinyNetworkReducesLoss(t *testing.T) {
	// A 2-layer conv net should fit a fixed random target: loss must
	// drop substantially over a few hundred steps.
	rng := rand.New(rand.NewSource(15))
	conv1, err := NewConv2D(1, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	relu, err := NewLeakyReLU(0.1)
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := NewConv2D(4, 1, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewSequential(conv1, relu, conv2)
	opt, err := NewAdam(0.01, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(1, 1, 8, 8)
	x.UniformInit(1, rng)
	target := tensor.MustNew(1, 1, 8, 8)
	target.UniformInit(0.5, rng)

	grad := tensor.MustNew(1, 1, 8, 8)

	var first, last float64
	for step := 0; step < 200; step++ {
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := MSEInto(grad, out, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		net.ZeroGrads()
		if _, err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(net.Params()); err != nil {
			t.Fatal(err)
		}
	}
	if last > first*0.2 {
		t.Errorf("training did not reduce loss: %f -> %f", first, last)
	}
}
