package nn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nbhd/internal/tensor"
)

// testNet builds a conv->relu->pool->conv->linear stack covering every
// layer family with parameters.
func testNet(t *testing.T) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	conv1, err := NewConv2D(2, 4, 3, 1, 1, rng)
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
	conv2, err := NewConv2D(4, 3, 3, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinear(3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(conv1, relu, pool, conv2, pool2, lin)
}

// servedConv is one of the scene CNN's convolutions at the shape the
// gateway serves: 64×64 frames through channels [8, 16, 32], in batches
// of 16.
type servedConv struct {
	conv    *Conv2D
	inC, hw int
}

// servedConvs builds the three served convolutions. Their per-sample
// GEMMs (8×4096×27, 16×1024×72, 32×256×144) are large enough for the
// packed kernel's column split across workers, unlike testNet's 10×10
// inputs, whose GEMMs all run on one worker.
func servedConvs(t *testing.T) []servedConv {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	var out []servedConv
	for _, s := range []struct{ in, out, hw int }{{3, 8, 64}, {8, 16, 32}, {16, 32, 16}} {
		conv, err := NewConv2D(s.in, s.out, 3, 1, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		conv.bias.Value.UniformInit(0.5, rng)
		out = append(out, servedConv{conv: conv, inC: s.in, hw: s.hw})
	}
	return out
}

// servedBatch is the gateway's batch size.
const servedBatch = 16

// TestInferMatchesForward pins the train/infer split's core guarantee:
// the stateless Infer path produces bit-identical outputs to the
// training-path Forward.
func TestInferMatchesForward(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 4; trial++ {
		n := 1 + trial
		x := tensor.MustNew(n, 2, 10, 10)
		x.UniformInit(1, rng)
		want, err := net.Forward(x)
		if err != nil {
			t.Fatalf("Forward: %v", err)
		}
		wantData := append([]float32(nil), want.Data...)
		got, err := net.Infer(x)
		if err != nil {
			t.Fatalf("Infer: %v", err)
		}
		if !got.SameShape(want) {
			t.Fatalf("Infer shape %v, Forward shape %v", got.Shape, want.Shape)
		}
		for i := range wantData {
			if got.Data[i] != wantData[i] {
				t.Fatalf("trial %d: Infer[%d] = %g, Forward = %g", trial, i, got.Data[i], wantData[i])
			}
		}
	}
	for _, sc := range servedConvs(t) {
		x := tensor.MustNew(servedBatch, sc.inC, sc.hw, sc.hw)
		x.UniformInit(1, rng)
		want, err := sc.conv.Forward(x)
		if err != nil {
			t.Fatalf("Forward: %v", err)
		}
		got, err := sc.conv.Infer(x)
		if err != nil {
			t.Fatalf("Infer: %v", err)
		}
		if !got.SameShape(want) {
			t.Fatalf("conv %d->%d: Infer shape %v, Forward shape %v", sc.inC, sc.conv.OutChannels, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("conv %d->%d at %d²: Infer[%d] = %g, Forward = %g", sc.inC, sc.conv.OutChannels, sc.hw, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestInferBatchMatchesSingle verifies batched inference is bit-identical
// to running each sample alone — the property that lets Detect batch
// frames without changing any reported metric.
func TestInferBatchMatchesSingle(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(33))
	const n = 5
	batch := tensor.MustNew(n, 2, 10, 10)
	batch.UniformInit(1, rng)
	got, err := net.Infer(batch)
	if err != nil {
		t.Fatalf("batched Infer: %v", err)
	}
	gotData := append([]float32(nil), got.Data...)
	per := got.NumElems() / n
	inPer := batch.NumElems() / n
	for s := 0; s < n; s++ {
		one := tensor.MustNew(1, 2, 10, 10)
		copy(one.Data, batch.Data[s*inPer:(s+1)*inPer])
		single, err := net.Infer(one)
		if err != nil {
			t.Fatalf("single Infer %d: %v", s, err)
		}
		for i := 0; i < per; i++ {
			if single.Data[i] != gotData[s*per+i] {
				t.Fatalf("sample %d elem %d: single %g vs batched %g", s, i, single.Data[i], gotData[s*per+i])
			}
		}
	}
	for _, sc := range servedConvs(t) {
		x := tensor.MustNew(servedBatch, sc.inC, sc.hw, sc.hw)
		x.UniformInit(1, rng)
		got, err := sc.conv.Infer(x)
		if err != nil {
			t.Fatalf("batched Infer: %v", err)
		}
		per := got.NumElems() / servedBatch
		inPer := x.NumElems() / servedBatch
		for s := 0; s < servedBatch; s++ {
			one := tensor.MustNew(1, sc.inC, sc.hw, sc.hw)
			copy(one.Data, x.Data[s*inPer:(s+1)*inPer])
			single, err := sc.conv.Infer(one)
			if err != nil {
				t.Fatalf("single Infer %d: %v", s, err)
			}
			for i := 0; i < per; i++ {
				if single.Data[i] != got.Data[s*per+i] {
					t.Fatalf("conv %d->%d at %d² sample %d elem %d: single %g vs batched %g", sc.inC, sc.conv.OutChannels, sc.hw, s, i, single.Data[i], got.Data[s*per+i])
				}
			}
		}
	}
}

// TestInferConcurrent drives many concurrent Infer calls through one
// network — run under -race this is the reentrancy proof for the
// evaluation engine's parallel fan-out.
func TestInferConcurrent(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(34))
	x := tensor.MustNew(2, 2, 10, 10)
	x.UniformInit(1, rng)
	want, err := net.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantData := append([]float32(nil), want.Data...)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := net.Infer(x)
				if err != nil {
					errs <- err
					return
				}
				for i := range wantData {
					if got.Data[i] != wantData[i] {
						t.Errorf("concurrent Infer diverged at %d", i)
						return
					}
				}
				tensor.PutScratch(got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTrainingStepsSteadyStateAllocations verifies the pooled compute
// layer: after a warmup step, further forward/backward steps reuse
// pooled buffers instead of allocating afresh.
func TestTrainingStepsSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	// Pin to one P so worker-goroutine bookkeeping doesn't show up as
	// allocations; the count is then deterministic across machines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := testNet(t)
	rng := rand.New(rand.NewSource(35))
	x := tensor.MustNew(4, 2, 10, 10)
	x.UniformInit(1, rng)
	step := func() {
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss := tensor.GetScratch(out.Shape...)
		if err := SigmoidInto(loss, out); err != nil {
			t.Fatal(err)
		}
		net.ZeroGrads()
		gin, err := net.Backward(loss)
		if err != nil {
			t.Fatal(err)
		}
		tensor.PutScratch(gin)
		tensor.PutScratch(loss)
	}
	step() // warm the pool
	allocs := testing.AllocsPerRun(10, step)
	// A handful of incidental allocations (goroutine bookkeeping, slice
	// headers) is fine; the seed path allocated hundreds of tensors.
	if allocs > 30 {
		t.Errorf("steady-state training step allocates %.0f objects; pooling is not engaging", allocs)
	}
}

// TestInferSteadyStateAllocations bounds the allocations of a warm
// Sequential.Infer and InferQuantized at one P. Each conv pass costs a
// few fixed objects (its worker closure and operand headers); nothing
// may be paid per sample, so a batch of 16 must allocate no more than a
// batch of 1. The fixed code makes 10 per call on both paths.
func TestInferSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := testNet(t)
	if err := net.PrepareQuantized(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for _, path := range []struct {
		name  string
		infer func(*tensor.Tensor) (*tensor.Tensor, error)
	}{{"f32", net.Infer}, {"int8", net.InferQuantized}} {
		perBatch := map[int]float64{}
		for _, n := range []int{1, 16} {
			x := tensor.MustNew(n, 2, 10, 10)
			x.UniformInit(1, rng)
			run := func() {
				out, err := path.infer(x)
				if err != nil {
					t.Fatal(err)
				}
				tensor.PutScratch(out)
			}
			run() // warm the pools
			perBatch[n] = testing.AllocsPerRun(10, run)
			if perBatch[n] > 12 {
				t.Errorf("%s Infer of %d samples allocates %.0f objects, want at most 12", path.name, n, perBatch[n])
			}
		}
		if perBatch[16] > perBatch[1] {
			t.Errorf("%s Infer allocates %.0f objects for 16 samples but %.0f for 1: something is paid per sample", path.name, perBatch[16], perBatch[1])
		}
	}
}
