package yolo

import (
	"fmt"
	"math"

	"nbhd/internal/backbone"
	"nbhd/internal/dataset"
	"nbhd/internal/metrics"
	"nbhd/internal/nn"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
)

// TrainConfig holds the training protocol's knobs: epochs, batch size,
// shuffle seed, progress and stop hooks. The paper trains YOLOv11-Nano
// for 20 epochs with batch size 16, the defaults.
type TrainConfig = nn.TrainConfig

// The detector's Adam step size and loss weights.
const (
	learningRate = 3e-3
	// objWeight scales the objectness loss on cells that contain an
	// object.
	objWeight = 1
	// noObjWeight scales the objectness loss on empty cells (the
	// classic YOLO down-weighting).
	noObjWeight = 0.5
	// coordWeight scales the box regression loss.
	coordWeight = 5
)

// targets encodes ground truth for a batch into the grid layout:
// per-cell box targets, objectness, class one-hots, plus masks weighting
// each loss component. All six tensors are scratch-pool allocations,
// handed back by release.
type targets struct {
	box, boxMask *tensor.Tensor // (N,4,g,g)
	obj, objMask *tensor.Tensor // (N,1,g,g) conceptually; stored (N,1*g*g) inside full grid
	cls, clsMask *tensor.Tensor // (N,C,g,g)
}

// release returns the target tensors to the scratch pool.
func (t *targets) release() {
	tensor.PutScratch(t.box)
	tensor.PutScratch(t.boxMask)
	tensor.PutScratch(t.obj)
	tensor.PutScratch(t.objMask)
	tensor.PutScratch(t.cls)
	tensor.PutScratch(t.clsMask)
}

// encodeTargets assigns each ground-truth object to the grid cell holding
// its center. When two objects share a cell the larger box wins (roads
// beat incidental overlaps), which matches the one-predictor-per-cell
// head.
func (m *Model) encodeTargets(batch []dataset.Example) targets {
	g := m.grid
	n := len(batch)
	zeroed := func(shape ...int) *tensor.Tensor {
		t := tensor.GetScratch(shape...)
		t.Zero()
		return t
	}
	t := targets{
		box:     zeroed(n, 4, g, g),
		boxMask: zeroed(n, 4, g, g),
		obj:     zeroed(n, 1, g, g),
		objMask: tensor.GetScratch(n, 1, g, g), // Fill covers every element
		cls:     zeroed(n, scene.NumIndicators, g, g),
		clsMask: zeroed(n, scene.NumIndicators, g, g),
	}
	t.objMask.Fill(noObjWeight)
	// claimedArea[cell] is the area of the object that claimed the cell,
	// or -1 when unclaimed; reused across samples to stay allocation-free.
	if cap(m.claimedArea) < g*g {
		m.claimedArea = make([]float64, g*g)
	}
	claimedArea := m.claimedArea[:g*g]
	for s, ex := range batch {
		for i := range claimedArea {
			claimedArea[i] = -1
		}
		for _, o := range ex.Objects {
			cx, cy := o.BBox.Center()
			gx, gy := int(cx*float64(g)), int(cy*float64(g))
			if gx >= g {
				gx = g - 1
			}
			if gy >= g {
				gy = g - 1
			}
			if claimedArea[gy*g+gx] >= o.BBox.Area() {
				continue
			}
			claimedArea[gy*g+gx] = o.BBox.Area()
			// Box target: center offset within the cell and the square
			// root of the normalized size (YOLOv1's trick: sqrt evens
			// out the gradient between large roads and thin poles), all
			// in (0,1) to match the sigmoid decode.
			t.box.Set(float32(cx*float64(g)-float64(gx)), s, 0, gy, gx)
			t.box.Set(float32(cy*float64(g)-float64(gy)), s, 1, gy, gx)
			t.box.Set(float32(math.Sqrt(o.BBox.Width())), s, 2, gy, gx)
			t.box.Set(float32(math.Sqrt(o.BBox.Height())), s, 3, gy, gx)
			// Small objects need tighter localization to clear IoU 0.5,
			// so their coordinate loss is up-weighted.
			sizeBoost := float32(2 - o.BBox.Area())
			for c := 0; c < 4; c++ {
				t.boxMask.Set(coordWeight*sizeBoost, s, c, gy, gx)
			}
			t.obj.Set(1, s, 0, gy, gx)
			t.objMask.Set(objWeight, s, 0, gy, gx)
			// Class one-hot, trained only at object cells. Previous
			// claims' class rows are overwritten by zeroing first.
			for c := 0; c < scene.NumIndicators; c++ {
				t.cls.Set(0, s, c, gy, gx)
				t.clsMask.Set(1, s, c, gy, gx)
			}
			t.cls.Set(1, s, o.Indicator.Index(), gy, gx)
		}
	}
	return t
}

// lossInto computes the composite detection loss for raw head output
// and writes its gradient into grad, which has the output's shape.
// Every intermediate is pooled.
func (m *Model) lossInto(grad, out *tensor.Tensor, tg targets) (float64, error) {
	n, g := out.Shape[0], m.grid

	// Slice views by channel group. Output layout: (N, CellOutputs, g, g)
	// with channels [cx cy w h obj cls...]. We gather each group into
	// contiguous tensors, run the losses, then scatter gradients back;
	// the three groups cover every channel, so grad is fully written.
	gather := func(chans []int) *tensor.Tensor {
		dst := tensor.GetScratch(n, len(chans), g, g)
		for s := 0; s < n; s++ {
			for i, c := range chans {
				for y := 0; y < g; y++ {
					for x := 0; x < g; x++ {
						dst.Set(out.At(s, c, y, x), s, i, y, x)
					}
				}
			}
		}
		return dst
	}
	scatter := func(src *tensor.Tensor, chans []int) {
		for s := 0; s < n; s++ {
			for i, c := range chans {
				for y := 0; y < g; y++ {
					for x := 0; x < g; x++ {
						grad.Set(src.At(s, i, y, x), s, c, y, x)
					}
				}
			}
		}
	}

	boxChans := []int{0, 1, 2, 3}
	objChans := []int{4}
	clsChans := make([]int, scene.NumIndicators)
	for i := range clsChans {
		clsChans[i] = BoxFields + i
	}

	// Box loss: MSE between sigmoid(logit) and target, masked to object
	// cells. Chain rule multiplies by sigmoid'.
	boxLogits := gather(boxChans)
	boxPred := tensor.GetScratch(boxLogits.Shape...)
	if err := nn.SigmoidInto(boxPred, boxLogits); err != nil {
		return 0, fmt.Errorf("yolo: box loss: %w", err)
	}
	boxGrad := tensor.GetScratch(boxLogits.Shape...)
	boxLoss, err := nn.MSEInto(boxGrad, boxPred, tg.box, tg.boxMask)
	if err != nil {
		return 0, fmt.Errorf("yolo: box loss: %w", err)
	}
	for i, v := range boxPred.Data {
		boxGrad.Data[i] *= v * (1 - v)
	}
	scatter(boxGrad, boxChans)
	tensor.PutScratch(boxLogits)
	tensor.PutScratch(boxPred)
	tensor.PutScratch(boxGrad)

	// Objectness: BCE with per-cell weights.
	objLogits := gather(objChans)
	objGrad := tensor.GetScratch(objLogits.Shape...)
	objLoss, err := nn.BCEWithLogitsInto(objGrad, objLogits, tg.obj, tg.objMask)
	if err != nil {
		return 0, fmt.Errorf("yolo: obj loss: %w", err)
	}
	scatter(objGrad, objChans)
	tensor.PutScratch(objLogits)
	tensor.PutScratch(objGrad)

	// Class: BCE masked to object cells.
	clsLogits := gather(clsChans)
	clsGrad := tensor.GetScratch(clsLogits.Shape...)
	clsLoss, err := nn.BCEWithLogitsInto(clsGrad, clsLogits, tg.cls, tg.clsMask)
	if err != nil {
		return 0, fmt.Errorf("yolo: class loss: %w", err)
	}
	scatter(clsGrad, clsChans)
	tensor.PutScratch(clsLogits)
	tensor.PutScratch(clsGrad)

	return boxLoss + objLoss + clsLoss, nil
}

// Train fits the model to the examples. All images must match the
// model's input size.
func (m *Model) Train(examples []dataset.Example, cfg TrainConfig) error {
	return backbone.Train(m.Net, examples, learningRate, cfg, func(batch []dataset.Example, out, grad *tensor.Tensor) (float64, error) {
		tg := m.encodeTargets(batch)
		loss, err := m.lossInto(grad, out, tg)
		tg.release()
		return loss, err
	})
}

// evalBatchSize is the inference batch width used by Evaluate and the
// presence sweeps: one batched forward per chunk of this many frames.
const evalBatchSize = 16

// Evaluate runs inference over examples and returns per-image evaluation
// records for the metrics package. Frames are detected in batches of
// evalBatchSize through the stateless inference path; results are
// bit-identical to per-frame detection.
func (m *Model) Evaluate(examples []dataset.Example, scoreThresh, nmsIoU float64) ([]metrics.ImageEval, error) {
	out := make([]metrics.ImageEval, 0, len(examples))
	imgs := make([]*render.Image, 0, evalBatchSize)
	for start := 0; start < len(examples); start += evalBatchSize {
		end := start + evalBatchSize
		if end > len(examples) {
			end = len(examples)
		}
		imgs = imgs[:0]
		for i := start; i < end; i++ {
			imgs = append(imgs, examples[i].Image)
		}
		batchDets, err := m.DetectBatch(imgs, scoreThresh, nmsIoU)
		if err != nil {
			return nil, fmt.Errorf("yolo: evaluate batch starting at %s: %w", examples[start].ID, err)
		}
		for k, dets := range batchDets {
			out = append(out, metrics.ImageEval{
				ImageID: examples[start+k].ID,
				Dets:    dets,
				Truth:   examples[start+k].Objects,
			})
		}
	}
	return out, nil
}
