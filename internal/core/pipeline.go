// Package core orchestrates the paper's end-to-end methodology (Fig. 1):
// collect and label a street-view corpus, train the supervised detector
// baseline, evaluate LLMs with prompt strategies, majority-vote the top
// models, and run the downstream neighborhood-environment analysis.
// Everything below it is a substrate; this package is the public face
// the command-line tools and examples drive.
package core

import (
	"context"
	"fmt"

	"nbhd/internal/analysis"
	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/labelme"
	"nbhd/internal/metrics"
	"nbhd/internal/nn"
	"nbhd/internal/prompt"
	"nbhd/internal/scene"
	"nbhd/internal/store"
	"nbhd/internal/yolo"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Coordinates is the number of sampled coordinates (x4 headings).
	// Zero defaults to the paper's 300.
	Coordinates int
	// Seed drives all generation.
	Seed int64
	// DetectorInputSize is the detector's render/input resolution; zero
	// defaults to 64.
	DetectorInputSize int
	// LLMRenderSize is the resolution of frames sent to LLMs; zero
	// defaults to 96.
	LLMRenderSize int
	// StoreDir, when non-empty, opens (creating on demand) a persistent
	// frame store there and serves renders through it: frames already in
	// the store are memory-mapped instead of re-rendered, and fresh
	// renders are persisted for every later run. Pipelines with a
	// StoreDir own the store and must be Closed.
	StoreDir string
	// Morphology names the procedural world family the corpus counties
	// are generated from (world.Names); empty keeps the legacy study
	// world.
	Morphology string
	// Condition names the corpus-level capture condition
	// (dataset.Conditions); empty or "clean" renders clean frames.
	// Supervised baselines train on the conditioned corpus; evaluation
	// sweeps can override per sweep via LLMOptions.Condition.
	Condition string
}

func (c Config) withDefaults() Config {
	if c.Coordinates == 0 {
		c.Coordinates = dataset.StudyCoordinates
	}
	if c.DetectorInputSize == 0 {
		c.DetectorInputSize = 64
	}
	if c.LLMRenderSize == 0 {
		c.LLMRenderSize = 96
	}
	return c
}

// Pipeline holds the assembled corpus and its derived artifacts, plus
// the render cache its walks draw frames from.
type Pipeline struct {
	cfg   Config
	Study *dataset.Study
	// Annotations is the LabelMe store built from the corpus.
	Annotations *labelme.Store

	// cache is every walk's frame source (RenderCache.RenderInto): a
	// walk renders each frame once per resolution into its workers'
	// buffers and keeps nothing, so a run that makes one walk renders
	// each frame once no matter how many models, committees, languages
	// or sweeps it asks.
	cache *dataset.RenderCache

	// frameStore is the persistent render tier (nil without a StoreDir);
	// the cache above consults it before rendering.
	frameStore *store.Store
}

// NewPipeline assembles the corpus and annotations.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	study, err := dataset.BuildStudy(dataset.StudyConfig{
		Coordinates: cfg.Coordinates,
		Seed:        cfg.Seed,
		Morphology:  cfg.Morphology,
		Condition:   cfg.Condition,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	labeler, err := labelme.NewLabeler(labelme.LabelerConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ann := labelme.NewStore()
	for _, fr := range study.Frames {
		rec, err := labeler.Annotate(fr.Scene, cfg.DetectorInputSize, cfg.DetectorInputSize)
		if err != nil {
			return nil, fmt.Errorf("core: annotate %s: %w", fr.Scene.ID, err)
		}
		if err := ann.Put(rec); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	p := &Pipeline{cfg: cfg, Study: study, Annotations: ann}
	if cfg.StoreDir != "" {
		fs, err := store.Open(cfg.StoreDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		p.frameStore = fs
		p.cache = dataset.NewPersistentRenderCache(study, fs)
	} else {
		p.cache = dataset.NewRenderCache(study)
	}
	return p, nil
}

// Close releases the persistent frame store, flushing its index. A
// pipeline without a StoreDir has nothing to release; Close is then a
// no-op, so defer p.Close() is always safe.
func (p *Pipeline) Close() error {
	if p.frameStore != nil {
		return p.frameStore.Close()
	}
	return nil
}

// RenderCache exposes the pipeline's shared render cache.
func (p *Pipeline) RenderCache() *dataset.RenderCache { return p.cache }

// FrameStore exposes the persistent render tier, or nil when the
// pipeline was built without a StoreDir.
func (p *Pipeline) FrameStore() *store.Store { return p.frameStore }

// BaselineResult is the trained-detector evaluation (Table I).
type BaselineResult struct {
	Model  *yolo.Model
	Report *metrics.ClassReport
	AP     map[scene.Indicator]metrics.APResult
	MAP50  float64
}

// BaselineOptions tunes detector training.
type BaselineOptions struct {
	// Epochs defaults to the paper's 20; BatchSize to 16.
	Epochs, BatchSize int
	// Augment applies the given ops to the training split before
	// training (Fig. 2 ablation arms).
	Augment []dataset.AugmentOp
	// NoiseSNRdB, when non-zero, corrupts the *test* split at this SNR
	// (Fig. 3).
	NoiseSNRdB float64
	// Progress receives per-epoch losses.
	Progress func(epoch int, loss float64)
	// Stop, when non-nil, is polled at epoch boundaries; a non-nil
	// return aborts training with that error (pass ctx.Err for
	// cancellable training).
	Stop func() error
}

// trainOnSplit runs the supervised baselines' shared training protocol:
// 70/20/10 split at Seed+1, render the training frames at the detector
// resolution, apply the Fig. 2 augmentation arms, and hand them to train
// with the shuffle seed Seed+shuffle. The detector and the scene CNN
// both train on exactly this corpus, which is what makes their Fig. 5
// comparison fair. It returns the split for the caller's test frames.
func (p *Pipeline) trainOnSplit(opts BaselineOptions, shuffle int64, train func([]dataset.Example, nn.TrainConfig) error) (dataset.Split, error) {
	split, err := p.Study.Split(dataset.PaperSplit(), p.cfg.Seed+1)
	if err != nil {
		return dataset.Split{}, fmt.Errorf("core: %w", err)
	}
	examples, err := p.Study.RenderExamples(split.Train, p.cfg.DetectorInputSize)
	if err == nil && len(opts.Augment) > 0 {
		examples, err = dataset.Augment(examples, opts.Augment, p.cfg.Seed+2)
	}
	if err == nil {
		err = train(examples, nn.TrainConfig{
			Epochs:    opts.Epochs,
			BatchSize: opts.BatchSize,
			Seed:      p.cfg.Seed + shuffle,
			Progress:  opts.Progress,
			Stop:      opts.Stop,
		})
	}
	if err != nil {
		return dataset.Split{}, fmt.Errorf("core: %w", err)
	}
	return split, nil
}

// TrainBaseline runs the paper's supervised pipeline: 70/20/10 split,
// train the detector, evaluate P/R/F1 and mAP50 on the test split.
func (p *Pipeline) TrainBaseline(opts BaselineOptions) (*BaselineResult, error) {
	model, split, err := p.trainDetectorModel(opts)
	if err != nil {
		return nil, err
	}
	test, err := p.Study.RenderExamples(split.Test, p.cfg.DetectorInputSize)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.NoiseSNRdB != 0 {
		test = dataset.AddNoise(test, opts.NoiseSNRdB, p.cfg.Seed+3)
	}
	return p.EvaluateDetector(model, test)
}

// trainDetectorModel trains the detector on the shared split protocol
// and returns it with the split — the training half of TrainBaseline,
// shared with the backend environment's training hook.
func (p *Pipeline) trainDetectorModel(opts BaselineOptions) (*yolo.Model, dataset.Split, error) {
	model, err := yolo.New(yolo.Config{InputSize: p.cfg.DetectorInputSize, Seed: p.cfg.Seed + 4})
	if err != nil {
		return nil, dataset.Split{}, fmt.Errorf("core: %w", err)
	}
	split, err := p.trainOnSplit(opts, 5, model.Train)
	if err != nil {
		return nil, dataset.Split{}, err
	}
	return model, split, nil
}

// EvaluateDetector scores a trained detector on examples.
func (p *Pipeline) EvaluateDetector(model *yolo.Model, test []dataset.Example) (*BaselineResult, error) {
	evals, err := model.Evaluate(test, 0.25, 0.45)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	report, err := metrics.DetectionReport(evals, 0.25, metrics.IoU50)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ap, err := metrics.APPerClass(evals, metrics.IoU50)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &BaselineResult{Model: model, Report: report, AP: ap, MAP50: metrics.MeanAP(ap)}, nil
}

// TrainSceneCNN trains the multi-label scene-classification baseline
// (§IV-B3) on the same 70/20/10 split protocol as the detector and
// returns the trained model, ready for backend.NewCNN, the adapter
// through which the engine scores its presence answers.
func (p *Pipeline) TrainSceneCNN(opts BaselineOptions) (*classify.Model, error) {
	model, err := classify.New(classify.Config{InputSize: p.cfg.DetectorInputSize, Seed: p.cfg.Seed + 6})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := p.trainOnSplit(opts, 7, model.Train); err != nil {
		return nil, err
	}
	return model, nil
}

// pipelineEnv implements backend.Env over a pipeline, so supervised
// backend specs (yolo, cnn) train on the run's corpus split when opened.
type pipelineEnv struct{ p *Pipeline }

// TrainDetector trains the detector baseline for the given epochs; the
// context cancels at epoch boundaries.
func (e pipelineEnv) TrainDetector(ctx context.Context, epochs int) (*yolo.Model, error) {
	model, _, err := e.p.trainDetectorModel(BaselineOptions{Epochs: epochs, Stop: func() error { return ctx.Err() }})
	return model, err
}

// TrainSceneCNN trains the scene-classification baseline for the given
// epochs; the context cancels at epoch boundaries.
func (e pipelineEnv) TrainSceneCNN(ctx context.Context, epochs int) (*classify.Model, error) {
	return e.p.TrainSceneCNN(BaselineOptions{Epochs: epochs, Stop: func() error { return ctx.Err() }})
}

// BackendEnv returns the pipeline's backend-opening environment: pass it
// to backend.OpenWith so declarative yolo/cnn specs train on this
// pipeline's corpus split.
func (p *Pipeline) BackendEnv() backend.Env { return pipelineEnv{p} }

// LLMOptions tunes an LLM evaluation sweep.
type LLMOptions struct {
	// Language defaults to English; Mode to parallel.
	Language prompt.Language
	Mode     prompt.Mode
	// Temperature/TopP forward to the models (zero = defaults).
	Temperature, TopP float64
	// FrameLimit caps the number of frames evaluated (0 = all).
	FrameLimit int
	// Condition overrides the capture condition frames are evaluated
	// under: empty inherits the corpus's condition, dataset.ConditionClean
	// forces clean frames, any other registered condition degrades the
	// cached clean renders — the train-clean/test-degraded knob.
	Condition string
}

// backendOptions lowers the sweep options to the backend layer's request
// knobs over the full indicator set — the single conversion point
// between the two option vocabularies.
func (o LLMOptions) backendOptions() backend.Options {
	inds := scene.Indicators()
	return backend.Options{
		Indicators:  inds[:],
		Language:    o.Language,
		Mode:        o.Mode,
		Temperature: o.Temperature,
		TopP:        o.TopP,
	}
}

// NeighborhoodResult is the downstream analysis output.
type NeighborhoodResult struct {
	Locations    []analysis.LocationProfile
	Tracts       []analysis.TractProfile
	Scores       []analysis.EnvironmentScore
	Associations []analysis.Association
}

// neighborhoodAnalysis fuses the answers to each coordinate's four
// headings (corpus frames [g*FramesPerCoordinate,
// (g+1)*FramesPerCoordinate) for coordinate g) with any-vote fusion and
// runs the downstream analysis chain — tract bucketing, environment
// scoring, synthetic outcomes, associations — over the fused locations.
func (p *Pipeline) neighborhoodAnalysis(answers [][scene.NumIndicators]bool, tractCellFeet float64) (*NeighborhoodResult, error) {
	locations := make([]analysis.LocationProfile, len(answers)/FramesPerCoordinate)
	for g := range locations {
		fused, err := ensemble.FuseHeadings(answers[g*FramesPerCoordinate:(g+1)*FramesPerCoordinate], ensemble.FuseAny)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		fr := p.Study.Frames[g*FramesPerCoordinate]
		locations[g] = analysis.LocationProfile{Coordinate: fr.Scene.Point.Coordinate, County: fr.County, Presence: fused}
	}
	tracts, err := analysis.Tracts(locations, tractCellFeet)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	scores := analysis.Score(tracts)
	health := analysis.DefaultObesityModel(p.cfg.Seed + 9)
	outcomes, err := health.Generate(tracts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	assocs, err := analysis.Associations(tracts, outcomes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &NeighborhoodResult{
		Locations:    locations,
		Tracts:       tracts,
		Scores:       scores,
		Associations: assocs,
	}, nil
}

// FramesPerCoordinate is the number of frames per sampled coordinate (one
// per cardinal heading).
const FramesPerCoordinate = 4
