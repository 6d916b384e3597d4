package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nbhd/internal/tensor"
)

// chainInfer is the unfused reference for Sequential.Infer and
// InferQuantized: every layer on its own, with the activation and the
// pool spelled out as plain `if` loops rather than through the
// branch-free kernels the fused epilogue shares with the layers.
func chainInfer(t *testing.T, layers []Layer, x *tensor.Tensor, quantized bool) *tensor.Tensor {
	t.Helper()
	cur := x.Clone()
	for i, l := range layers {
		var y *tensor.Tensor
		var err error
		switch l := l.(type) {
		case *LeakyReLU:
			y = cur.Clone()
			for j, v := range y.Data {
				if v < 0 {
					y.Data[j] = l.Alpha * v
				}
			}
		case *MaxPool2D:
			y = refMaxPool(cur, l.Size, l.Stride)
		case QuantizedLayer:
			if quantized {
				y, err = l.InferQuantized(cur)
			} else {
				y, err = l.(Layer).Infer(cur)
			}
		default:
			y, err = l.Infer(cur)
		}
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		cur = y.Clone()
	}
	return cur
}

// refMaxPool is the pooling loop with `if v > best` from -Inf.
func refMaxPool(x *tensor.Tensor, size, stride int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := (h-size)/stride+1, (w-size)/stride+1
	out := tensor.MustNew(n, c, outH, outW)
	oi := 0
	for ch := 0; ch < n*c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						if v := x.Data[ch*h*w+(oy*stride+ky)*w+ox*stride+kx]; v > best {
							best = v
						}
					}
				}
				out.Data[oi] = best
				oi++
			}
		}
	}
	return out
}

// fusedStacks builds the networks the fused plan must reproduce: the
// scene CNN's shape (conv blocks into a linear head), the detector's
// (conv blocks, a conv → LeakyReLU refinement pair, a 1×1 head), and a
// conv → pool block without an activation. Biases are random so every
// epilogue add matters.
func fusedStacks(t *testing.T, hw int) map[string][]Layer {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	conv := func(in, out, k, pad int) *Conv2D {
		c, err := NewConv2D(in, out, k, 1, pad, rng)
		if err != nil {
			t.Fatal(err)
		}
		c.bias.Value.UniformInit(0.5, rng)
		return c
	}
	relu := func() *LeakyReLU {
		r, err := NewLeakyReLU(0.1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pool := func() *MaxPool2D {
		p, err := NewMaxPool2D(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	grid := hw / 2 / 2
	head, err := NewLinear(6*grid*grid, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]Layer{
		"classify": {conv(3, 4, 3, 1), relu(), pool(), conv(4, 6, 3, 1), relu(), pool(), head},
		"yolo":     {conv(3, 4, 3, 1), relu(), pool(), conv(4, 6, 3, 1), relu(), pool(), conv(6, 6, 3, 1), relu(), conv(6, 7, 1, 0)},
		"no-relu":  {conv(3, 5, 3, 1), pool(), conv(5, 4, 3, 0), relu()},
	}
}

// TestFusedInferMatchesChain pins the fused plan bit for bit to the
// layer-by-layer chain on both paths, over classify- and yolo-shaped
// stacks, batches of 1, 3 and 16, and an odd input size where every
// pool drops its last row and column.
func TestFusedInferMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, hw := range []int{12, 11} {
		for name, layers := range fusedStacks(t, hw) {
			net := NewSequential(layers...)
			if len(net.plan) >= len(layers) {
				t.Fatalf("%s: plan has %d stages for %d layers; nothing fused", name, len(net.plan), len(layers))
			}
			if err := net.PrepareQuantized(); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3, 16} {
				x := tensor.MustNew(n, 3, hw, hw)
				x.UniformInit(1, rng)
				for _, quantized := range []bool{false, true} {
					label := fmt.Sprintf("%s %d² batch %d quantized=%v", name, hw, n, quantized)
					want := chainInfer(t, layers, x, quantized)
					infer := net.Infer
					if quantized {
						infer = net.InferQuantized
					}
					got, err := infer(x)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertSameBits(t, label, got, want)
					tensor.PutScratch(got)
				}
			}
		}
	}
}

// TestFusedPoolKeepsFirstOfTiedZeros pins the tie rule: a LeakyReLU that
// underflows a tiny negative to −0 puts −0 and +0 in one window, and
// the pool must keep whichever comes first, as `if v > best` does —
// Go's builtin max would return +0 for both windows.
func TestFusedPoolKeepsFirstOfTiedZeros(t *testing.T) {
	conv, err := NewConv2D(1, 1, 1, 1, 0, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	conv.weight.Value.Data[0] = 1
	conv.bias.Value.Data[0] = 0
	relu, err := NewLeakyReLU(0.1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tiny := -math.SmallestNonzeroFloat32
	if got := math.Float32bits(0.1 * float32(tiny)); got != math.Float32bits(float32(math.Copysign(0, -1))) {
		t.Fatalf("0.1 × smallest negative = %#x, want −0", got)
	}
	// Two 2×2 windows side by side: +0 first, then −0 first.
	x, err := tensor.FromSlice([]float32{
		0, float32(tiny), float32(tiny), 0,
		float32(tiny), float32(tiny), float32(tiny), float32(tiny),
	}, 1, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := NewSequential(conv, relu, pool)
	got, err := net.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := math.Signbit(float64(got.Data[0])), math.Signbit(float64(got.Data[1])); a || !b || got.Data[0] != 0 || got.Data[1] != 0 {
		t.Fatalf("pooled windows = %v (sign bits %v, %v), want +0 then −0", got.Data, a, b)
	}
	assertSameBits(t, "fused vs chain", got, chainInfer(t, net.Layers, x, false))
	// The standalone pool shares the kernel and the rule.
	acts, err := relu.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := pool.Infer(acts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "MaxPool2D.Infer vs reference", pooled, refMaxPool(acts, 2, 2))
}

func assertSameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its pin to GOMAXPROCS 1:
// the average heap allocations of f over runs calls, counting those of
// every goroutine f starts.
func mallocsPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestSteadyStateAllocationsTwoProcs bounds the allocations of a warm
// Infer, InferQuantized and training step at GOMAXPROCS 2, on convs large
// enough to split. Only one level may fan out: samples split and each
// sample's GEMM runs on its worker, so the count is a few objects per
// conv pass and a batch of 16 allocates about what a batch of 4 does.
// With per-sample GEMMs fanning out again inside the sample workers,
// each of the 16 would pay its own goroutines and closures.
func TestSteadyStateAllocationsTwoProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	layers := fusedStacks(t, 32)["classify"]
	net := NewSequential(layers...)
	if err := net.PrepareQuantized(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	// The counts include whatever the runtime allocates meanwhile, and a
	// worker goroutine now and then needs a fresh g: a few objects of
	// slack. Nested fan-out would cost 16 samples × 2 convs × a few.
	const inferBound, trainBound, perBatchSlack = 30, 45, 8
	perBatch := map[string]float64{}
	for _, n := range []int{4, 16} {
		x := tensor.MustNew(n, 3, 32, 32)
		x.UniformInit(1, rng)
		for _, path := range []struct {
			name  string
			bound float64
			run   func()
		}{
			{"f32 Infer", inferBound, func() {
				out, err := net.Infer(x)
				if err != nil {
					t.Fatal(err)
				}
				tensor.PutScratch(out)
			}},
			{"int8 Infer", inferBound, func() {
				out, err := net.InferQuantized(x)
				if err != nil {
					t.Fatal(err)
				}
				tensor.PutScratch(out)
			}},
			{"training step", trainBound, func() {
				out, err := net.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				grad := tensor.GetScratch(out.Shape...)
				if err := SigmoidInto(grad, out); err != nil {
					t.Fatal(err)
				}
				net.ZeroGrads()
				gin, err := net.Backward(grad)
				if err != nil {
					t.Fatal(err)
				}
				tensor.PutScratch(gin)
				tensor.PutScratch(grad)
			}},
		} {
			path.run() // warm the pools
			allocs := mallocsPerRun(10, path.run)
			if allocs > path.bound {
				t.Errorf("%s of %d samples at 2 procs allocates %.0f objects, want at most %.0f", path.name, n, allocs, path.bound)
			}
			if n == 4 {
				perBatch[path.name] = allocs
			} else if allocs > perBatch[path.name]+perBatchSlack {
				t.Errorf("%s allocates %.0f objects for 16 samples but %.0f for 4: something is paid per sample", path.name, allocs, perBatch[path.name])
			}
		}
	}
}
