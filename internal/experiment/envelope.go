package experiment

// The accuracy envelope is the robustness suite's contract: for every
// (backend kind, capture condition) cell of the matrix, the macro-average
// accuracy over the corpus must stay at or above the floor recorded
// here. The floors were measured empirically on the deterministic
// simulation (seed 0, 8-coordinate corpus, one training epoch, all four
// world families) and backed off by roughly 0.10 below the observed
// minimum, so they hold across every morphology family while still
// failing the build on a real regression — a degradation op that
// suddenly erases evidence, a backend change that collapses under
// noise, a quantization bug that only shows on degraded frames.

// envelopeFloors maps backend kind -> condition -> minimum macro-average
// accuracy. Conditions are the dataset registry's names; "clean" is the
// identity condition.
var envelopeFloors = map[string]map[string]float64{
	"vlm": {
		"clean":     0.78,
		"night":     0.55,
		"noise":     0.75,
		"occlusion": 0.75,
	},
	"committee": {
		"clean":     0.78,
		"night":     0.55,
		"noise":     0.75,
		"occlusion": 0.75,
	},
	"yolo": {
		"clean":     0.62,
		"night":     0.52,
		"noise":     0.62,
		"occlusion": 0.62,
	},
	"cnn": {
		"clean":     0.66,
		"night":     0.64,
		"noise":     0.66,
		"occlusion": 0.66,
	},
	"yolo-int8": {
		"clean":     0.62,
		"night":     0.52,
		"noise":     0.62,
		"occlusion": 0.62,
	},
	"cnn-int8": {
		"clean":     0.66,
		"night":     0.64,
		"noise":     0.66,
		"occlusion": 0.66,
	},
}

// EnvelopeFloor returns the minimum acceptable macro-average accuracy
// for one matrix cell. Cells outside the table (an unlisted backend
// kind or condition) have no contract and floor at zero, so ad-hoc
// matrix configurations never fail spuriously.
func EnvelopeFloor(backendKind, condition string) float64 {
	if condition == "" {
		condition = "clean"
	}
	return envelopeFloors[backendKind][condition]
}
