package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"nbhd/internal/analysis"
	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/geo"
	"nbhd/internal/metrics"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// EvalConfig tunes the concurrent evaluator.
type EvalConfig struct {
	// Workers is the classification fan-out per sweep; zero defaults to
	// GOMAXPROCS.
	Workers int
}

// Evaluator sweeps classifier backends over the pipeline's corpus
// concurrently. Every backend family — builtin VLMs, committees, remote
// HTTP models, the YOLO detector, the CNN baseline — flows through the
// same path: frames come from the shared render cache at the backend's
// resolution, perception features come from the shared perception cache
// when the backend consumes them, batches fan out across a worker pool
// shaped by the backend's capability hints, and per-worker partial
// ClassReports are merged at the end. Results are bit-identical to a
// serial sweep: answers are deterministic in (backend, frame content,
// request), renders are deterministic in the scene, and confusion
// counts are order-independent under merge.
type Evaluator struct {
	pipe    *Pipeline
	workers int
}

// NewEvaluator builds an evaluator over the pipeline's shared caches.
func (p *Pipeline) NewEvaluator(cfg EvalConfig) *Evaluator {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Evaluator{pipe: p, workers: w}
}

// featEntry dedupes concurrent perception of one image.
type featEntry struct {
	once  sync.Once
	feats vlm.Features
	err   error
}

// features returns the cached perception features for a rendered frame,
// perceiving it exactly once across all concurrent sweeps.
func (p *Pipeline) features(img *render.Image) (vlm.Features, error) {
	v, _ := p.featCache.LoadOrStore(img, &featEntry{})
	e := v.(*featEntry)
	e.once.Do(func() { e.feats, e.err = vlm.Perceive(img) })
	return e.feats, e.err
}

// renderSizeFor resolves the resolution a backend's frames render at:
// its capability hint, or the pipeline's LLM render size.
func (p *Pipeline) renderSizeFor(caps backend.Capabilities) int {
	if caps.RenderSize > 0 {
		return caps.RenderSize
	}
	return p.cfg.LLMRenderSize
}

// frameItems builds backend items for corpus frames [start,end) from the
// shared render and perception caches at the given resolution and capture
// condition — the one batch-assembly path every sweep (classification and
// neighborhood analysis alike) goes through.
func (p *Pipeline) frameItems(start, end, size int, cond string, wantFeats bool) ([]backend.Item, error) {
	items := make([]backend.Item, 0, end-start)
	for i := start; i < end; i++ {
		ex, err := p.cache.CondExample(i, size, cond)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		item := backend.Item{ID: ex.ID, Image: ex.Image}
		if wantFeats {
			feats, err := p.features(ex.Image)
			if err != nil {
				return nil, fmt.Errorf("core: perceive %s: %w", ex.ID, err)
			}
			item.Feats = &feats
		}
		items = append(items, item)
	}
	return items, nil
}

// BackendSweep is one backend's sweep over the corpus: its confusion
// report and the answer vectors it was scored from, indexed by corpus
// frame (Answers[i] is frame i's; the FrameLimit cuts the slice short).
type BackendSweep struct {
	Report  *metrics.ClassReport
	Answers [][scene.NumIndicators]bool
}

// EvaluateBackend sweeps any classifier backend over the corpus with the
// evaluator's worker pool. The backend's capability hints shape the
// sweep: frames render (once, cached) at its preferred resolution,
// perception features are precomputed only when it consumes them,
// classification happens in batches of its preferred size, and
// concurrent Classify calls are bounded by its maximum concurrency —
// rendering and perception stay fully parallel even for single-file
// backends. The context cancels the sweep: the first error (or
// cancellation) stops all workers and is returned.
func (e *Evaluator) EvaluateBackend(ctx context.Context, b backend.Backend, opts LLMOptions) (*metrics.ClassReport, error) {
	sw, err := e.sweepBackend(ctx, b, opts, 0, 1)
	if err != nil {
		return nil, err
	}
	return sw.Report, nil
}

// sweepBackend is EvaluateBackend for sweep i of k running concurrently
// over the shared caches, keeping the answers: it starts at batch
// i·nBatches/k and wraps around, so concurrent sweeps spread over the
// corpus instead of queuing on the same frame's render and perception.
// The result is the same from any start, since every answer lands in
// its frame's slot.
func (e *Evaluator) sweepBackend(ctx context.Context, b backend.Backend, opts LLMOptions, i, k int) (BackendSweep, error) {
	p := e.pipe
	if !dataset.ValidCondition(opts.Condition) {
		return BackendSweep{}, fmt.Errorf("core: unknown capture condition %q (have %v)", opts.Condition, dataset.Conditions())
	}
	n := p.Study.Len()
	if opts.FrameLimit > 0 && opts.FrameLimit < n {
		n = opts.FrameLimit
	}
	batch := max(1, b.Capabilities().PreferredBatch)
	nBatches := (n + batch - 1) / batch
	span := func(bi int) (int, int) {
		start := bi * batch
		return start, min(start+batch, n)
	}
	answers := make([][scene.NumIndicators]bool, n)
	err := e.classifyBatches(ctx, b, opts, nBatches, i*nBatches/k, span, func(_, start int, items []backend.Item, got [][]bool) error {
		for k := range items {
			if len(got[k]) != scene.NumIndicators {
				return fmt.Errorf("core: backend %s answered %d indicators for %s, want %d", b.Name(), len(got[k]), items[k].ID, scene.NumIndicators)
			}
			copy(answers[start+k][:], got[k])
		}
		return nil
	})
	if err != nil {
		return BackendSweep{}, err
	}
	return BackendSweep{Report: p.score(answers), Answers: answers}, nil
}

// score builds the confusion report of per-frame answer vectors against
// the corpus ground truth.
func (p *Pipeline) score(answers [][scene.NumIndicators]bool) *metrics.ClassReport {
	var report metrics.ClassReport
	for i, pred := range answers {
		report.AddVector(pred, p.Study.Frames[i].Scene.Presence())
	}
	return &report
}

// Vote majority-votes the members' recorded answers frame by frame with
// ensemble.Vote and scores the votes against the corpus ground truth.
// Over sweeps taken under the same options it reports exactly what
// EvaluateBackend reports for a backend.NewVoting committee of the same
// members, without asking any member again.
func (e *Evaluator) Vote(members []BackendSweep) (*metrics.ClassReport, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: vote needs at least one member")
	}
	n := len(members[0].Answers)
	for _, m := range members[1:] {
		if len(m.Answers) != n {
			return nil, fmt.Errorf("core: vote members answered %d and %d frames", n, len(m.Answers))
		}
	}
	voted := make([][scene.NumIndicators]bool, n)
	votes := make([][]bool, len(members))
	for i := range voted {
		for m := range members {
			votes[m] = members[m].Answers[i][:]
		}
		v, err := ensemble.Vote(votes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		copy(voted[i][:], v)
	}
	return e.pipe.score(voted), nil
}

// EvaluateBackendSet evaluates several backends concurrently over the
// shared caches and returns their reports in input order; it is
// SweepBackendSet without the answers.
func (e *Evaluator) EvaluateBackendSet(ctx context.Context, backends []backend.Backend, opts LLMOptions) ([]*metrics.ClassReport, error) {
	sweeps, err := e.SweepBackendSet(ctx, backends, opts)
	if err != nil {
		return nil, err
	}
	reports := make([]*metrics.ClassReport, len(sweeps))
	for i := range sweeps {
		reports[i] = sweeps[i].Report
	}
	return reports, nil
}

// SweepBackendSet sweeps several backends concurrently over the shared
// caches and returns their reports and answers in input order. The
// evaluator's worker budget is divided among the sweeps (see
// sweepWorkers) so the total fan-out stays at e.workers rather than
// backends × workers, and each sweep starts at its own batch. The first
// backend error cancels the others.
func (e *Evaluator) SweepBackendSet(ctx context.Context, backends []backend.Backend, opts LLMOptions) ([]BackendSweep, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("core: no backends to evaluate")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sweeps := make([]BackendSweep, len(backends))
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := &Evaluator{pipe: e.pipe, workers: sweepWorkers(e.workers, len(backends), i)}
			sw, err := sub.sweepBackend(ctx, backends[i], opts, i, len(backends))
			if err != nil {
				errs[i] = fmt.Errorf("core: %s: %w", backends[i].Name(), err)
				cancel()
				return
			}
			sweeps[i] = sw
		}(i)
	}
	wg.Wait()
	// Report errors in input order so failures are deterministic even
	// when several backends fail at once — but skip the secondary
	// cancellations our own cancel() induced in sibling sweeps, so the
	// root cause isn't masked.
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return nil, err
	}
	if canceled != nil {
		return nil, canceled
	}
	return sweeps, nil
}

// sweepWorkers is sweep i's share of a budget of workers split over k
// concurrent sweeps: workers/k, one more for the first workers%k sweeps,
// and never less than one, so the shares sum to max(workers, k).
func sweepWorkers(workers, k, i int) int {
	n := workers / k
	if i < workers%k {
		n++
	}
	return max(1, n)
}

// AnalyzeNeighborhood runs a backend over the whole corpus, fuses the
// four headings of each coordinate with any-vote fusion, and produces
// tract-level environment scores and health-outcome associations.
// Coordinate groups fan out across the worker pool (each group is one
// backend batch fed from the shared caches); results are bit-identical
// to the serial sweep because fused locations land at their coordinate's
// index regardless of completion order. The context cancels mid-sweep.
func (e *Evaluator) AnalyzeNeighborhood(ctx context.Context, b backend.Backend, tractFeet float64) (*NeighborhoodResult, error) {
	nGroups := e.pipe.Study.Len() / FramesPerCoordinate
	groups := make([]int, nGroups)
	for i := range groups {
		groups[i] = i
	}
	locations, err := e.classifyGroups(ctx, b, groups)
	if err != nil {
		return nil, err
	}
	return e.pipe.neighborhoodAnalysis(locations, tractFeet)
}

// NeighborhoodAt runs the same downstream analysis over only the corpus
// coordinates within radiusFeet of center, selected in O(log n) through
// the pipeline's spatial index instead of classifying the whole corpus.
// Selection is exact (bit-identical to a linear distance scan) and the
// chosen groups are classified in ascending coordinate-group order, so
// the result is deterministic in (backend, center, radius).
func (e *Evaluator) NeighborhoodAt(ctx context.Context, b backend.Backend, center geo.Coordinate, radiusFeet, tractFeet float64) (*NeighborhoodResult, error) {
	hits := e.pipe.FrameIndex().Radius(center, radiusFeet)
	seen := make(map[int]bool, len(hits)/FramesPerCoordinate)
	groups := make([]int, 0, len(hits)/FramesPerCoordinate)
	for _, h := range hits {
		g := h.ID / FramesPerCoordinate
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no corpus coordinates within %.0f ft of (%.5f, %.5f)", radiusFeet, center.Lat, center.Lng)
	}
	sort.Ints(groups)
	locations, err := e.classifyGroups(ctx, b, groups)
	if err != nil {
		return nil, err
	}
	return e.pipe.neighborhoodAnalysis(locations, tractFeet)
}

// classifyGroups classifies the given coordinate groups (group g covers
// corpus frames [g*FramesPerCoordinate, (g+1)*FramesPerCoordinate)) and
// fuses each group's headings with any-vote fusion. Groups fan out
// across the worker pool, one backend batch per group fed from the
// shared caches; locations[i] is groups[i]'s fused profile regardless of
// completion order. This is the one classification path under both
// AnalyzeNeighborhood (all groups) and NeighborhoodAt (index-selected
// groups).
func (e *Evaluator) classifyGroups(ctx context.Context, b backend.Backend, groups []int) ([]analysis.LocationProfile, error) {
	p := e.pipe
	span := func(gi int) (int, int) {
		start := groups[gi] * FramesPerCoordinate
		return start, start + FramesPerCoordinate
	}
	locations := make([]analysis.LocationProfile, len(groups))
	err := e.classifyBatches(ctx, b, LLMOptions{}, len(groups), 0, span, func(gi, start int, _ []backend.Item, answers [][]bool) error {
		perHeading := make([][scene.NumIndicators]bool, len(answers))
		for k := range answers {
			copy(perHeading[k][:], answers[k])
		}
		fused, err := ensemble.FuseHeadings(perHeading, ensemble.FuseAny)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		fr := p.Study.Frames[start]
		locations[gi] = analysis.LocationProfile{
			Coordinate: fr.Scene.Point.Coordinate,
			County:     fr.County,
			Presence:   fused,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return locations, nil
}

// width is the worker count for a sweep of n batches: the evaluator's
// fan-out, capped at n but at least one.
func (e *Evaluator) width(n int) int { return max(1, min(e.workers, n)) }

// classifyBatches is the worker pool under every corpus sweep. Workers
// claim batch indices in order from first, wrapping past nBatches-1 to
// 0 until every batch is claimed once; batch bi covers the corpus
// frames [span(bi)), assembled from the shared caches under opts'
// capture condition and classified by b. body consumes each batch's
// answers; it runs concurrently on distinct batches.
// The first error — from assembly, classification or body — cancels
// the remaining workers and is returned; otherwise a canceled context
// returns its error.
func (e *Evaluator) classifyBatches(ctx context.Context, b backend.Backend, opts LLMOptions, nBatches, first int, span func(bi int) (start, end int), body func(bi, start int, items []backend.Item, answers [][]bool) error) error {
	p := e.pipe
	caps := b.Capabilities()
	size := p.renderSizeFor(caps)
	options := opts.backendOptions()
	workers := e.width(nBatches)
	// A semaphore bounds concurrent Classify calls to the backend's
	// limit; workers above the cap still render and perceive in parallel
	// (the caches' main win), queuing only for classification.
	var classifySem chan struct{}
	if caps.MaxConcurrency > 0 && caps.MaxConcurrency < workers {
		classifySem = make(chan struct{}, caps.MaxConcurrency)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     atomic.Int64
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				claimed := int(next.Add(1))
				if claimed >= nBatches {
					return
				}
				bi := (first + claimed) % nBatches
				start, end := span(bi)
				items, err := p.frameItems(start, end, size, opts.Condition, caps.PerceivedFeatures)
				if err != nil {
					fail(err)
					return
				}
				if classifySem != nil {
					select {
					case classifySem <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				res, err := b.Classify(ctx, backend.BatchRequest{Items: items, Options: options})
				if classifySem != nil {
					<-classifySem
				}
				if err != nil {
					fail(fmt.Errorf("core: %w", err))
					return
				}
				if len(res.Answers) != len(items) {
					fail(fmt.Errorf("core: backend %s returned %d answer vectors for %d items", b.Name(), len(res.Answers), len(items)))
					return
				}
				if err := body(bi, start, items, res.Answers); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
