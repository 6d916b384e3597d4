package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"nbhd/internal/analysis"
	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
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
// same frame-major walk (see walk): each frame is rendered at each
// backend resolution and perceived once per walk, every backend of the
// sweep is asked about it in batches shaped by its capability hints,
// and each answer lands in its frame's slot, scored in frame order at
// the end. Results are bit-identical to a serial sweep: answers are
// deterministic in (backend, frame content, request) and renders are
// deterministic in the scene.
type Evaluator struct {
	pipe    *Pipeline
	workers int
}

// NewEvaluator builds an evaluator over the pipeline's corpus and caches.
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

// features returns the cached perception features for a kept frame,
// perceiving it exactly once across all concurrent sweeps.
func (p *Pipeline) features(img *render.Image) (vlm.Features, error) {
	v, ok := p.featCache.Load(img)
	if !ok {
		v, _ = p.featCache.LoadOrStore(img, &featEntry{})
	}
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
// perception features are computed (once, cached) only when it consumes
// them, classification happens in batches of its preferred size, and
// concurrent Classify calls are bounded by its maximum concurrency —
// rendering and perception stay fully parallel even for single-file
// backends. The frames and features stay in the pipeline's caches for
// later sweeps. The context cancels the sweep: the first error (or
// cancellation) stops all workers and is returned.
func (e *Evaluator) EvaluateBackend(ctx context.Context, b backend.Backend, opts LLMOptions) (*metrics.ClassReport, error) {
	sweeps, _, err := e.sweep(ctx, []backend.Backend{b}, opts, true)
	if err != nil {
		return nil, err
	}
	return sweeps[0].Report, nil
}

// sweep walks the corpus once for every backend under opts and returns
// their sweeps in input order, or the first error with the index of the
// backend it belongs to (see walk).
func (e *Evaluator) sweep(ctx context.Context, backends []backend.Backend, opts LLMOptions, keep bool) ([]BackendSweep, int, error) {
	p := e.pipe
	if !dataset.ValidCondition(opts.Condition) {
		return nil, 0, fmt.Errorf("core: unknown capture condition %q (have %v)", opts.Condition, dataset.Conditions())
	}
	n := p.Study.Len()
	if opts.FrameLimit > 0 && opts.FrameLimit < n {
		n = opts.FrameLimit
	}
	answers := make([][][scene.NumIndicators]bool, len(backends))
	jobs := make([]frameJob, len(backends))
	for i, b := range backends {
		answers[i] = make([][scene.NumIndicators]bool, n)
		jobs[i] = e.answerJob(b, opts, answers[i])
	}
	if culprit, err := e.walk(ctx, jobs, func(batches []int) [][2]int { return frameSpans(n, batches) }, keep); err != nil {
		return nil, culprit, err
	}
	sweeps := make([]BackendSweep, len(backends))
	for i := range sweeps {
		sweeps[i] = BackendSweep{Report: p.score(answers[i]), Answers: answers[i]}
	}
	return sweeps, 0, nil
}

// answerJob is backend b's part in a sweep under opts: each frame's
// answer vector lands in its slot, answers[i] for corpus frame i.
func (e *Evaluator) answerJob(b backend.Backend, opts LLMOptions, answers [][scene.NumIndicators]bool) frameJob {
	return e.newJob(b, opts, func(_, start int, items []backend.Item, got [][]bool) error {
		for k := range items {
			if len(got[k]) != scene.NumIndicators {
				return fmt.Errorf("core: backend %s answered %d indicators for %s, want %d", b.Name(), len(got[k]), items[k].ID, scene.NumIndicators)
			}
			copy(answers[start+k][:], got[k])
		}
		return nil
	})
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

// EvaluateBackendSet evaluates several backends over one walk of the
// corpus and returns their reports in input order; it is
// SweepBackendSet without the answers, keeping the frames.
func (e *Evaluator) EvaluateBackendSet(ctx context.Context, backends []backend.Backend, opts LLMOptions) ([]*metrics.ClassReport, error) {
	sweeps, err := e.SweepBackendSet(ctx, backends, opts, true)
	if err != nil {
		return nil, err
	}
	reports := make([]*metrics.ClassReport, len(sweeps))
	for i := range sweeps {
		reports[i] = sweeps[i].Report
	}
	return reports, nil
}

// SweepBackendSet sweeps several backends over one frame-major walk of
// the corpus (see walk) and returns their reports and answers in input
// order. keepFrames says whether a later sweep needs this one's frames:
// with it the frames and perception features come from, and stay in,
// the pipeline's caches (and its persistent frame store, if any);
// without it each worker renders into buffers it owns and reuses, and
// nothing outlives the sweep. The reports are the same either way. The
// first backend error cancels the others and is returned, prefixed with
// the backend's name.
func (e *Evaluator) SweepBackendSet(ctx context.Context, backends []backend.Backend, opts LLMOptions, keepFrames bool) ([]BackendSweep, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("core: no backends to evaluate")
	}
	sweeps, culprit, err := e.sweep(ctx, backends, opts, keepFrames)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", backends[culprit].Name(), err)
	}
	return sweeps, nil
}

// AnalyzeNeighborhood runs a backend over the whole corpus, fuses the
// four headings of each coordinate with any-vote fusion, and produces
// tract-level environment scores and health-outcome associations.
// Coordinate groups (group g covers corpus frames
// [g*FramesPerCoordinate, (g+1)*FramesPerCoordinate)) fan out across the
// worker pool, each group one span of the walk and one backend batch
// over kept frames; results are bit-identical to the serial sweep
// because fused locations land at their coordinate's index regardless
// of completion order. The context cancels mid-sweep.
func (e *Evaluator) AnalyzeNeighborhood(ctx context.Context, b backend.Backend, tractFeet float64) (*NeighborhoodResult, error) {
	p := e.pipe
	spans := make([][2]int, p.Study.Len()/FramesPerCoordinate)
	for g := range spans {
		spans[g] = [2]int{g * FramesPerCoordinate, (g + 1) * FramesPerCoordinate}
	}
	locations := make([]analysis.LocationProfile, len(spans))
	job := e.newJob(b, LLMOptions{}, func(g, start int, _ []backend.Item, answers [][]bool) error {
		perHeading := make([][scene.NumIndicators]bool, len(answers))
		for k := range answers {
			copy(perHeading[k][:], answers[k])
		}
		fused, err := ensemble.FuseHeadings(perHeading, ensemble.FuseAny)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		fr := p.Study.Frames[start]
		locations[g] = analysis.LocationProfile{
			Coordinate: fr.Scene.Point.Coordinate,
			County:     fr.County,
			Presence:   fused,
		}
		return nil
	})
	job.batch = FramesPerCoordinate
	if _, err := e.walk(ctx, []frameJob{job}, func([]int) [][2]int { return spans }, true); err != nil {
		return nil, err
	}
	return p.neighborhoodAnalysis(locations, tractFeet)
}

// frameJob is one backend's part in a frame-major walk: the walk asks b
// about the frames of each span in chunks of batch (a chunk starts batch
// frames after the previous one, at the span's start for the first),
// on frames rendered at size and degraded under the resolved capture
// condition cond, and hands every answer to take.
type frameJob struct {
	b       backend.Backend
	caps    backend.Capabilities
	size    int
	cond    string
	batch   int
	options backend.Options
	// take consumes the answers to the chunk whose first frame is corpus
	// frame start, in the walk's span si; it runs concurrently on
	// distinct chunks.
	take func(si, start int, items []backend.Item, answers [][]bool) error
	// Set by walk: cond's index in the job's group, and the semaphore
	// bounding concurrent Classify calls (nil when unbounded).
	ci  int
	sem chan struct{}
}

// newJob builds backend b's frame job under opts, in chunks of its
// preferred batch.
func (e *Evaluator) newJob(b backend.Backend, opts LLMOptions, take func(si, start int, items []backend.Item, answers [][]bool) error) frameJob {
	caps := b.Capabilities()
	return frameJob{
		b:       b,
		caps:    caps,
		size:    e.pipe.renderSizeFor(caps),
		cond:    dataset.ResolveCondition(e.pipe.Study.Condition, opts.Condition),
		batch:   max(1, caps.PreferredBatch),
		options: opts.backendOptions(),
		take:    take,
	}
}

// frameSpans splits corpus frames [0,n) into the frame batches of a walk
// whose backends ask for the given batch sizes: runs of the sizes' least
// common multiple, capped at n, so each backend's chunks are exactly
// the batches a walk of its own would make — its own size, each
// starting at a multiple of it.
func frameSpans(n int, batches []int) [][2]int {
	span := 1
	for _, b := range batches {
		if span = span / gcd(span, b) * b; span >= n {
			span = max(n, 1)
			break
		}
	}
	spans := make([][2]int, 0, (n+span-1)/span)
	for start := 0; start < n; start += span {
		spans = append(spans, [2]int{start, min(start+span, n)})
	}
	return spans
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// frameGroup is the jobs of a walk that share a render size: the
// distinct capture conditions they ask under, whether any job under each
// consumes perception features, and the spans of frames the walk's
// workers claim for them.
type frameGroup struct {
	size     int
	jobs     []int
	conds    []string
	perceive []bool
	spans    [][2]int
}

// walk is the worker pool under every corpus sweep. It groups the jobs
// by render size, asks spans(batches) for each group's spans given its
// jobs' batch sizes, and runs max(workers, jobs) workers (capped at the
// number of spans) that claim spans in order. For each span a worker
// gets each frame once at the group's size — from the pipeline's caches
// when keep is set, otherwise rendered into a buffer the worker owns —
// derives each capture condition once, perceives each (frame,
// condition) once if some job consumes features, then asks every job in
// input order, each Classify under the job's MaxConcurrency, while the
// span's frames are still in cache.
//
// The first error cancels the rest. Errors are kept per job and the
// first in input order is returned with its job's index, skipping the
// cancellations the first error induced in other jobs; an error in
// getting or perceiving a frame belongs to its group's first job.
// Otherwise a canceled context returns its error.
func (e *Evaluator) walk(ctx context.Context, jobs []frameJob, spans func(batches []int) [][2]int, keep bool) (int, error) {
	var groups []*frameGroup
	for j := range jobs {
		job := &jobs[j]
		var g *frameGroup
		for _, h := range groups {
			if h.size == job.size {
				g = h
				break
			}
		}
		if g == nil {
			g = &frameGroup{size: job.size}
			groups = append(groups, g)
		}
		g.jobs = append(g.jobs, j)
		c := slices.Index(g.conds, job.cond)
		if c < 0 {
			c = len(g.conds)
			g.conds = append(g.conds, job.cond)
			g.perceive = append(g.perceive, false)
		}
		g.perceive[c] = g.perceive[c] || job.caps.PerceivedFeatures
		job.ci = c
	}
	type unit struct {
		g  *frameGroup
		si int
	}
	var units []unit
	for _, g := range groups {
		batches := make([]int, len(g.jobs))
		for k, j := range g.jobs {
			batches[k] = jobs[j].batch
		}
		g.spans = spans(batches)
		for si := range g.spans {
			units = append(units, unit{g, si})
		}
	}
	workers := max(1, min(max(e.workers, len(jobs)), len(units)))
	// A semaphore bounds a job's concurrent Classify calls to its
	// backend's limit; workers above the cap queue only for that
	// backend's classification.
	for j := range jobs {
		if mc := jobs[j].caps.MaxConcurrency; mc > 0 && mc < workers {
			jobs[j].sem = make(chan struct{}, mc)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make([]error, len(jobs))
		next atomic.Int64
	)
	fail := func(j int, err error) {
		mu.Lock()
		if errs[j] == nil {
			errs[j] = err
		}
		mu.Unlock()
		cancel()
	}
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fr frames
			for ctx.Err() == nil {
				claimed := int(next.Add(1))
				if claimed >= len(units) {
					return
				}
				u := units[claimed]
				if j, err := e.visit(ctx, &fr, u.g, u.si, jobs, keep); err != nil {
					fail(j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	canceled := -1
	for j, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return j, err
		}
		if canceled < 0 {
			canceled = j
		}
	}
	if canceled >= 0 {
		return canceled, errs[canceled]
	}
	return 0, ctx.Err()
}

// frames is one walk worker's reusable state: the buffers it renders
// and degrades frames into when frames are not kept, and per condition
// the span's frames and their perception features, plus the items of
// one Classify call.
type frames struct {
	bufs  map[bufKey][]*render.Image
	imgs  [][]*render.Image
	feats [][]vlm.Features
	items []backend.Item
}

// bufKey names a run of a worker's buffers: a render size and a plane,
// 0 for clean frames and c+1 for the group's condition c.
type bufKey struct{ size, plane int }

// prepare sizes the per-condition slots for a span of m frames.
func (f *frames) prepare(conds, m int) {
	for len(f.imgs) < conds {
		f.imgs = append(f.imgs, nil)
		f.feats = append(f.feats, nil)
	}
	for c := 0; c < conds; c++ {
		if len(f.imgs[c]) < m {
			f.imgs[c] = make([]*render.Image, m)
			f.feats[c] = make([]vlm.Features, m)
		}
	}
}

// buffer returns the worker's k-th buffer of a size and plane,
// allocating it on first use.
func (f *frames) buffer(size, plane, k int) (*render.Image, error) {
	if f.bufs == nil {
		f.bufs = make(map[bufKey][]*render.Image)
	}
	key := bufKey{size, plane}
	bufs := f.bufs[key]
	for len(bufs) <= k {
		img, err := render.NewImage(size, size)
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, img)
	}
	f.bufs[key] = bufs
	return bufs[k], nil
}

// visit runs span si of group g on one worker (see walk); on failure it
// returns the error with the index of the job it belongs to.
func (e *Evaluator) visit(ctx context.Context, fr *frames, g *frameGroup, si int, jobs []frameJob, keep bool) (int, error) {
	p := e.pipe
	start, end := g.spans[si][0], g.spans[si][1]
	first := g.jobs[0]
	fr.prepare(len(g.conds), end-start)
	for idx := start; idx < end; idx++ {
		k := idx - start
		if keep {
			for c, cond := range g.conds {
				img, err := p.cache.CondImage(idx, g.size, cond)
				if err != nil {
					return first, fmt.Errorf("core: %w", err)
				}
				fr.imgs[c][k] = img
			}
		} else {
			clean, err := fr.buffer(g.size, 0, k)
			if err != nil {
				return first, fmt.Errorf("core: %w", err)
			}
			if err := p.cache.RenderInto(idx, clean); err != nil {
				return first, fmt.Errorf("core: %w", err)
			}
			for c, cond := range g.conds {
				dst := clean
				if cond != dataset.ConditionClean {
					if dst, err = fr.buffer(g.size, c+1, k); err != nil {
						return first, fmt.Errorf("core: %w", err)
					}
				}
				if fr.imgs[c][k], err = p.cache.ConditionInto(idx, cond, clean, dst); err != nil {
					return first, fmt.Errorf("core: %w", err)
				}
			}
		}
		for c := range g.conds {
			if !g.perceive[c] {
				continue
			}
			var err error
			if keep {
				fr.feats[c][k], err = p.features(fr.imgs[c][k])
			} else {
				fr.feats[c][k], err = vlm.Perceive(fr.imgs[c][k])
			}
			if err != nil {
				return first, fmt.Errorf("core: perceive %s: %w", p.Study.Frames[idx].Scene.ID, err)
			}
		}
	}
	for _, j := range g.jobs {
		job := &jobs[j]
		c := job.ci
		for cs := start; cs < end; cs += job.batch {
			items := fr.items[:0]
			for idx := cs; idx < min(cs+job.batch, end); idx++ {
				it := backend.Item{ID: p.Study.Frames[idx].Scene.ID, Image: fr.imgs[c][idx-start]}
				if job.caps.PerceivedFeatures {
					it.Feats = &fr.feats[c][idx-start]
				}
				items = append(items, it)
			}
			fr.items = items
			if job.sem != nil {
				select {
				case job.sem <- struct{}{}:
				case <-ctx.Done():
					return j, ctx.Err()
				}
			}
			res, err := job.b.Classify(ctx, backend.BatchRequest{Items: items, Options: job.options})
			if job.sem != nil {
				<-job.sem
			}
			if err != nil {
				return j, fmt.Errorf("core: %w", err)
			}
			if len(res.Answers) != len(items) {
				return j, fmt.Errorf("core: backend %s returned %d answer vectors for %d items", job.b.Name(), len(res.Answers), len(items))
			}
			if err := job.take(si, cs, items, res.Answers); err != nil {
				return j, err
			}
		}
	}
	return 0, nil
}
