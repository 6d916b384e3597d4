// Package dataset assembles the paper's study corpus: 1,200 street-view
// frames sampled from the two-county road network (300 coordinates × 4
// cardinal headings), with ground truth from the scene generator. It also
// provides the 70/20/10 split, per-class label statistics, the Fig. 2
// augmentation pipeline (rotations and crops), and the Fig. 3 Gaussian
// noise injection.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"nbhd/internal/geo"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/world"
)

// StudyImages is the paper's corpus size.
const StudyImages = 1200

// StudyCoordinates is the number of sampled coordinates (4 headings each).
const StudyCoordinates = StudyImages / 4

// Frame is one study image: a scene plus its provenance.
type Frame struct {
	// Scene is the frame's ground truth.
	Scene *scene.Scene
	// County names the source county.
	County string
}

// StudyConfig controls corpus assembly.
type StudyConfig struct {
	// Coordinates is the number of sampled coordinates; each yields four
	// frames. Zero defaults to StudyCoordinates (300).
	Coordinates int
	// Seed drives county generation, sampling, and scene generation.
	Seed int64
	// Priors optionally overrides the scene generator's presence priors.
	// When nil, a Morphology's own co-occurrence priors apply; without a
	// Morphology the calibrated defaults do.
	Priors *scene.Priors
	// Morphology names the procedural world family the counties are
	// generated from (world.Names); empty keeps the legacy StudyCounties
	// world.
	Morphology string
	// Condition names the capture condition every rendered frame is
	// degraded under (Conditions); empty or "clean" renders clean frames.
	Condition string
}

// Study is the assembled corpus.
type Study struct {
	// Frames is the corpus in deterministic order.
	Frames []Frame
	// Rural and Urban are the generated counties.
	Rural, Urban *geo.County
	// Morphology is the world family the counties came from ("" for the
	// legacy study world).
	Morphology string
	// Condition is the corpus-level capture condition applied to every
	// render ("" or "clean" for clean frames).
	Condition string
	seed      int64
}

// BuildStudy generates the two synthetic counties, segments all roadways
// at 50-foot intervals, randomly samples coordinates, and produces four
// heading frames per coordinate — the paper's §IV-A collection protocol.
func BuildStudy(cfg StudyConfig) (*Study, error) {
	coords := cfg.Coordinates
	if coords == 0 {
		coords = StudyCoordinates
	}
	if coords < 1 {
		return nil, fmt.Errorf("dataset: coordinate count must be >= 1, got %d", coords)
	}
	if !ValidCondition(cfg.Condition) {
		return nil, fmt.Errorf("dataset: unknown capture condition %q (have %v)", cfg.Condition, Conditions())
	}
	priors := cfg.Priors
	var rural, urban *geo.County
	var err error
	if cfg.Morphology == "" {
		rural, urban, err = geo.StudyCounties(cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	} else {
		w, werr := world.Generate(world.Config{Family: cfg.Morphology, Seed: cfg.Seed})
		if werr != nil {
			return nil, fmt.Errorf("dataset: %w", werr)
		}
		rural, urban = w.Rural, w.Urban
		if priors == nil {
			p := w.Priors
			priors = &p
		}
	}
	ruralFrame, urbanFrame, err := geo.SampleFrame(rural, urban)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	// Tag points by county before pooling so frames keep provenance.
	type tagged struct {
		point  geo.SamplePoint
		county string
	}
	pool := make([]tagged, 0, len(ruralFrame)+len(urbanFrame))
	for _, p := range ruralFrame {
		pool = append(pool, tagged{point: p, county: rural.Name})
	}
	for _, p := range urbanFrame {
		pool = append(pool, tagged{point: p, county: urban.Name})
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	idx := rng.Perm(len(pool))
	if coords > len(pool) {
		return nil, fmt.Errorf("dataset: requested %d coordinates but sampling frame has only %d points", coords, len(pool))
	}

	gen := scene.NewGenerator(&scene.GenConfig{Priors: priors})
	condition := cfg.Condition
	if condition == ConditionClean {
		condition = ""
	}
	study := &Study{Rural: rural, Urban: urban, Morphology: cfg.Morphology, Condition: condition, seed: cfg.Seed}
	study.Frames = make([]Frame, 0, coords*4)
	for i := 0; i < coords; i++ {
		sel := pool[idx[i]]
		for _, h := range geo.CardinalHeadings() {
			id := scene.FrameID(sel.county, i, h)
			sc, err := gen.Generate(id, sel.point, h, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("dataset: generate frame %s: %w", id, err)
			}
			study.Frames = append(study.Frames, Frame{Scene: sc, County: sel.county})
		}
	}
	return study, nil
}

// Len returns the number of frames.
func (s *Study) Len() int { return len(s.Frames) }

// Stats summarizes the corpus's label composition.
type Stats struct {
	// Objects counts ground-truth objects per indicator (canonical
	// order) — comparable to the paper's 206/444/346/505/301/125.
	Objects [scene.NumIndicators]int
	// ImagesWith counts frames where each indicator is present.
	ImagesWith [scene.NumIndicators]int
	// TotalObjects is the corpus-wide object count (paper: 1,927).
	TotalObjects int
	// Frames is the corpus size.
	Frames int
	// ByCounty counts frames per county name.
	ByCounty map[string]int
}

// Stats computes corpus statistics.
func (s *Study) Stats() Stats {
	st := Stats{Frames: len(s.Frames), ByCounty: make(map[string]int, 2)}
	for _, f := range s.Frames {
		st.ByCounty[f.County]++
		counts := f.Scene.CountByIndicator()
		pres := f.Scene.Presence()
		for i := 0; i < scene.NumIndicators; i++ {
			st.Objects[i] += counts[i]
			if pres[i] {
				st.ImagesWith[i]++
			}
		}
	}
	for _, n := range st.Objects {
		st.TotalObjects += n
	}
	return st
}

// Split is a partition of frame indices.
type Split struct {
	Train, Val, Test []int
}

// SplitFractions holds the partition proportions; the paper uses
// 0.7/0.2/0.1.
type SplitFractions struct {
	Train, Val, Test float64
}

// PaperSplit returns the paper's 70/20/10 fractions.
func PaperSplit() SplitFractions {
	return SplitFractions{Train: 0.7, Val: 0.2, Test: 0.1}
}

// Split partitions the corpus. Frames are stratified by (county, road
// class) so "the samples for each indicator are evenly distributed"
// across partitions, then shuffled deterministically in the seed.
func (s *Study) Split(f SplitFractions, seed int64) (Split, error) {
	if f.Train <= 0 || f.Val < 0 || f.Test < 0 {
		return Split{}, fmt.Errorf("dataset: split fractions must be positive (train) and non-negative, got %+v", f)
	}
	if sum := f.Train + f.Val + f.Test; sum < 0.999 || sum > 1.001 {
		return Split{}, fmt.Errorf("dataset: split fractions sum to %f, want 1", sum)
	}
	// Group indices by stratum.
	strata := make(map[string][]int)
	for i, fr := range s.Frames {
		key := fr.County + "/" + fr.Scene.Point.RoadClass.String()
		strata[key] = append(strata[key], i)
	}
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	rng := rand.New(rand.NewSource(seed))
	var out Split
	for _, k := range keys {
		idx := strata[k]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		nTrain := int(float64(len(idx)) * f.Train)
		nVal := int(float64(len(idx)) * f.Val)
		out.Train = append(out.Train, idx[:nTrain]...)
		out.Val = append(out.Val, idx[nTrain:nTrain+nVal]...)
		out.Test = append(out.Test, idx[nTrain+nVal:]...)
	}
	return out, nil
}

// Example is a rendered training or evaluation sample: pixels plus ground
// truth, the unit the detector pipeline consumes.
type Example struct {
	// ID is the originating frame id, with an augmentation suffix when
	// derived (e.g. "durham-0001-n#rot90").
	ID string
	// Image is the rendered RGB raster.
	Image *render.Image
	// Objects is the ground truth aligned to Image's orientation.
	Objects []scene.Object
}

// Presence returns the image-level presence vector of the example.
func (e *Example) Presence() [scene.NumIndicators]bool {
	var out [scene.NumIndicators]bool
	for _, o := range e.Objects {
		if idx := o.Indicator.Index(); idx >= 0 {
			out[idx] = true
		}
	}
	return out
}

// RenderExamples rasterizes the given frame indices at size×size pixels.
// A corpus built with a capture Condition degrades every render under it
// (ground-truth boxes are untouched — no condition moves geometry).
func (s *Study) RenderExamples(indices []int, size int) ([]Example, error) {
	out := make([]Example, 0, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(s.Frames) {
			return nil, fmt.Errorf("dataset: frame index %d out of range [0,%d)", i, len(s.Frames))
		}
		fr := s.Frames[i]
		img, err := render.Render(fr.Scene, render.Config{Width: size, Height: size})
		if err != nil {
			return nil, fmt.Errorf("dataset: render %s: %w", fr.Scene.ID, err)
		}
		img, err = s.conditioned(fr.Scene.ID, s.Condition, img, nil)
		if err != nil {
			return nil, err
		}
		objs := make([]scene.Object, len(fr.Scene.Objects))
		copy(objs, fr.Scene.Objects)
		out = append(out, Example{ID: fr.Scene.ID, Image: img, Objects: objs})
	}
	return out, nil
}

// conditioned degrades one rendered frame under the named capture
// condition with the study's deterministic per-frame seed — the single
// seed-derivation point shared by RenderExamples and the render cache,
// so every tier produces byte-identical degraded frames. The output
// goes into dst (which must match img's size), or a new image when dst
// is nil.
func (s *Study) conditioned(frameID, condition string, img, dst *render.Image) (*render.Image, error) {
	if condition == "" || condition == ConditionClean {
		return img, nil
	}
	out, err := applyCondition(condition, img, dst, ConditionSeed(s.seed, frameID, condition))
	if err != nil {
		return nil, fmt.Errorf("dataset: condition %s for %s: %w", condition, frameID, err)
	}
	return out, nil
}
