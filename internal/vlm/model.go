package vlm

import (
	"fmt"
	"math"

	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
)

// Request is one classification query against a simulated model.
type Request struct {
	// Image is the street-view frame.
	Image *render.Image
	// Indicators are the classes asked about, in question order.
	Indicators []scene.Indicator
	// Language of the prompt; zero defaults to English.
	Language prompt.Language
	// Mode is parallel or sequential prompting; zero defaults to
	// parallel.
	Mode prompt.Mode
	// Temperature and TopP are the sampling parameters; zeros default to
	// the provider defaults (1.0 and 0.95).
	Temperature, TopP float64
	// Shots is the number of in-context labeled examples included with
	// the prompt. The paper's §V suggests "few-shot learning could
	// partially mitigate" the non-English language gap; each shot closes
	// part of the distance between the language's recall multiplier and
	// the English baseline.
	Shots int
	// Nonce decorrelates repeated identical requests; requests with the
	// same content and nonce are deterministic.
	Nonce int64
}

// withDefaults fills zero fields.
func (r Request) withDefaults() Request {
	if r.Language == 0 {
		r.Language = prompt.English
	}
	if r.Mode == 0 {
		r.Mode = prompt.Parallel
	}
	if r.Temperature == 0 {
		r.Temperature = DefaultTemperature
	}
	if r.TopP == 0 {
		r.TopP = DefaultTopP
	}
	return r
}

// Model is one simulated vision LLM.
type Model struct {
	profile Profile
}

// NewModel builds a simulated model from a profile.
func NewModel(p Profile) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{profile: p}, nil
}

// ID returns the model's identifier.
func (m *Model) ID() ModelID { return m.profile.ID }

// Classify answers the request's Yes/No questions. The pipeline is
// perception (pixels to evidence) followed by the profile's calibrated
// stochastic response model; answers are deterministic in the full
// request content plus nonce — there is no shared RNG stream, so
// concurrent Classify calls on the same model are safe and
// order-independent.
func (m *Model) Classify(req Request) ([]bool, error) {
	req = req.withDefaults()
	if err := m.validate(req); err != nil {
		return nil, err
	}
	feats, err := Perceive(req.Image)
	if err != nil {
		return nil, fmt.Errorf("vlm: %s: %w", m.profile.ID, err)
	}
	return m.answer(req, feats)
}

// ClassifyPerceived answers the request using precomputed perception
// features, letting callers that sweep many classifiers over the same
// frame perceive each image exactly once. Answers are bit-identical to
// Classify on the same request: perception depends only on the image,
// and the response model depends only on (features, request).
func (m *Model) ClassifyPerceived(req Request, feats Features) ([]bool, error) {
	req = req.withDefaults()
	if err := m.validate(req); err != nil {
		return nil, err
	}
	return m.answer(req, feats)
}

// CheckSampling rejects sampling parameters the models do not take: a
// temperature outside [0,2] or a top-p outside (0,1], NaN and the
// infinities included. A zero top-p means the provider default and is
// accepted.
func CheckSampling(temperature, topP float64) error {
	if !(temperature >= 0 && temperature <= 2) {
		return fmt.Errorf("temperature %f outside [0,2]", temperature)
	}
	if topP != 0 && !(topP > 0 && topP <= 1) {
		return fmt.Errorf("top-p %f outside (0,1]", topP)
	}
	return nil
}

func (m *Model) validate(req Request) error {
	if req.Image == nil {
		return fmt.Errorf("vlm: %s: request has no image", m.profile.ID)
	}
	if len(req.Indicators) == 0 {
		return fmt.Errorf("vlm: %s: request asks about no indicators", m.profile.ID)
	}
	if err := CheckSampling(req.Temperature, req.TopP); err != nil {
		return fmt.Errorf("vlm: %s: %w", m.profile.ID, err)
	}
	if req.Shots < 0 || req.Shots > 64 {
		return fmt.Errorf("vlm: %s: shots %d outside [0,64]", m.profile.ID, req.Shots)
	}
	return nil
}

func (m *Model) answer(req Request, feats Features) ([]bool, error) {
	for _, ind := range req.Indicators {
		if ind.Index() < 0 {
			return nil, fmt.Errorf("vlm: %s: unknown indicator %d", m.profile.ID, int(ind))
		}
	}
	seeds := m.answerSeeds(req)
	answers := make([]bool, len(req.Indicators))
	for i, ind := range req.Indicators {
		answers[i] = firstFloat64(int64(seeds[ind.Index()])) < m.yesProbability(ind, feats, req)
	}
	return answers, nil
}

// yesProbability computes P(answer yes) for one indicator given the
// perceived features and request context.
func (m *Model) yesProbability(ind scene.Indicator, f Features, req Request) float64 {
	p := &m.profile
	recallMult := 1.0
	if req.Mode == prompt.Sequential {
		recallMult *= p.SequentialRecallMult
	}
	if table, ok := p.LangRecallMult[req.Language]; ok {
		langMult := table[ind.Index()]
		if req.Shots > 0 {
			// Few-shot mitigation (§V): each in-context example closes
			// a fraction of the gap to the English baseline, saturating
			// around eight shots.
			closure := float64(req.Shots) / 8.0
			if closure > 1 {
				closure = 1
			}
			langMult += (1 - langMult) * closure * 0.8
		}
		recallMult *= langMult
	}

	var pYes float64
	switch ind {
	case scene.SingleLaneRoad:
		switch f.Road {
		case RoadSingle:
			pYes = p.SRYesGivenSingle * recallMult
		case RoadMulti:
			pYes = p.SRYesGivenMulti
			if f.PartialRoad {
				pYes *= p.PartialSRBoost
			}
		default:
			pYes = p.SRYesGivenNoRoad
		}
	case scene.MultilaneRoad:
		switch f.Road {
		case RoadMulti:
			pYes = p.MRYesGivenMulti * recallMult
			if f.PartialRoad {
				pYes *= p.PartialMRPenalty
			}
		case RoadSingle:
			pYes = p.MRYesGivenSingle
		default:
			pYes = p.MRYesGivenNoRoad
		}
	default:
		present := false
		switch ind {
		case scene.Sidewalk:
			present = f.Sidewalk
		case scene.Streetlight:
			present = f.Streetlight
		case scene.Powerline:
			present = f.Powerline
		case scene.Apartment:
			present = f.Apartment
		}
		if present {
			pYes = p.Recall[ind.Index()] * recallMult
		} else {
			pYes = p.FPRate[ind.Index()]
		}
	}

	// Sampling-parameter noise (§IV-C4): deviating from the provider
	// defaults adds a small symmetric flip probability — enough to move
	// F1 by a point or two, never more, matching the paper's near-flat
	// sweeps.
	flip := samplingFlip(req.Temperature, req.TopP)
	pYes = pYes*(1-flip) + (1-pYes)*flip
	return clamp01(pYes)
}

// samplingFlip converts temperature/top-p deviations from the defaults
// into a symmetric answer-flip probability. Coefficients are sized to the
// paper's §IV-C4 sweeps: roughly a 2-3 point F1 move at the extremes,
// never more.
func samplingFlip(temperature, topP float64) float64 {
	flip := 0.010 * math.Abs(temperature-DefaultTemperature) / 0.5
	if topP < DefaultTopP {
		flip += 0.05 * (DefaultTopP - topP)
	}
	if flip > 0.25 {
		flip = 0.25
	}
	return flip
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// FNV-1a (64-bit) parameters. fnvZero3 is fnvPrime³ mod 2⁶⁴: FNV-1a
// over three zero bytes is one multiply by it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvZero3  = 0x8a97b0004e7feab
)

// The pixel pass below unrolls one hash lane per indicator.
var _ = [1]struct{}{}[scene.NumIndicators-6]

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnvPixel hashes one sampled pixel word. A float32 widened to float64
// has its low 29 bits clear, so the word's first three bytes are zero.
func fnvPixel(h, bits uint64) uint64 {
	h *= fnvZero3
	h = (h ^ bits>>24&0xff) * fnvPrime
	h = (h ^ bits>>32&0xff) * fnvPrime
	h = (h ^ bits>>40&0xff) * fnvPrime
	h = (h ^ bits>>48&0xff) * fnvPrime
	return (h ^ bits>>56) * fnvPrime
}

// fnvWord hashes v's eight bytes, least significant first.
func fnvWord(h uint64, v float64) uint64 {
	bits := math.Float64bits(v)
	for i := 0; i < 64; i += 8 {
		h = fnvByte(h, byte(bits>>i))
	}
	return h
}

// answerSeeds returns, for every indicator index, the seed of that
// indicator's answer draw: FNV-1a of the full request identity — model,
// indicator, language, mode, sampling parameters, nonce, a sparse
// sample of the image, and its width. All indicators share one pass over
// the image sample, each in its own hash lane.
func (m *Model) answerSeeds(req Request) [scene.NumIndicators]uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(m.profile.ID); i++ {
		h = fnvByte(h, m.profile.ID[i])
	}
	var lanes [scene.NumIndicators]uint64
	for k := range lanes {
		l := fnvByte(h, byte(k))
		l = fnvByte(l, byte(req.Language))
		l = fnvByte(l, byte(req.Mode))
		l = fnvWord(l, req.Temperature)
		l = fnvWord(l, req.TopP)
		l = fnvWord(l, float64(req.Shots))
		lanes[k] = fnvWord(l, float64(req.Nonce))
	}
	// The six lanes advance together as independent multiply chains,
	// so the CPU overlaps them.
	pix := req.Image.Pix
	stride := len(pix)/512 + 1
	l0, l1, l2, l3, l4, l5 := lanes[0], lanes[1], lanes[2], lanes[3], lanes[4], lanes[5]
	for i := 0; i < len(pix); i += stride {
		bits := math.Float64bits(float64(pix[i]))
		l0 = fnvPixel(l0, bits)
		l1 = fnvPixel(l1, bits)
		l2 = fnvPixel(l2, bits)
		l3 = fnvPixel(l3, bits)
		l4 = fnvPixel(l4, bits)
		l5 = fnvPixel(l5, bits)
	}
	lanes = [...]uint64{l0, l1, l2, l3, l4, l5}
	for k := range lanes {
		lanes[k] = fnvWord(lanes[k], float64(req.Image.W))
	}
	return lanes
}
