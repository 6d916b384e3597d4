package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// Workers is a walk's worker budget; zero defaults to GOMAXPROCS. A
	// walk that asks more distinct backends than that runs one worker
	// per backend instead.
	Workers int
}

// Evaluator walks classifier backends over the pipeline's corpus
// concurrently. Every backend family — builtin VLMs, committees, remote
// HTTP models, the YOLO detector, the CNN baseline — and every job of a
// run flows through the same frame-major walk (see Walk). Results are
// bit-identical to a serial sweep: answers are deterministic in
// (backend, frame content, request) and renders are deterministic in
// the scene.
type Evaluator struct {
	pipe    *Pipeline
	workers int
}

// NewEvaluator builds an evaluator over the pipeline's corpus and render
// cache.
func (p *Pipeline) NewEvaluator(cfg EvalConfig) *Evaluator {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Evaluator{pipe: p, workers: w}
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

// SweepJob is one sweep cell of a walk: Backend asked about the corpus
// frames under Options, the first Options.FrameLimit of them when it is
// positive.
type SweepJob struct {
	Backend backend.Backend
	Options LLMOptions
}

// AnalysisJob is one neighborhood analysis of a walk: Backend asked
// about every corpus frame, the four headings of each coordinate fused
// with any-vote fusion and the coordinates bucketed into tracts
// TractFeet wide.
type AnalysisJob struct {
	Backend   backend.Backend
	TractFeet float64
}

// Walk runs a run's jobs over one frame-major walk of the corpus (see
// walk) and returns each sweep job's report and answers and each
// analysis job's tract-level environment scores and health-outcome
// associations, in input order. A job's result is bit-identical to the
// one it gets walked alone: each sweep job is asked about its frames in
// chunks of its backend's preferred batch, each analysis job about one
// coordinate's four headings at a time.
//
// The first failure cancels the walk and is returned, prefixed with its
// backend's name, with the index of the job it belongs to: the sweep
// jobs come first, analysis job a is len(sweeps)+a. The context cancels
// the walk.
func (e *Evaluator) Walk(ctx context.Context, sweeps []SweepJob, analyses []AnalysisJob) ([]BackendSweep, []*NeighborhoodResult, int, error) {
	p := e.pipe
	jobs := make([]frameJob, 0, len(sweeps)+len(analyses))
	for i, s := range sweeps {
		if !dataset.ValidCondition(s.Options.Condition) {
			return nil, nil, i, fmt.Errorf("core: %s: core: unknown capture condition %q (have %v)", s.Backend.Name(), s.Options.Condition, dataset.Conditions())
		}
		n := p.Study.Len()
		if s.Options.FrameLimit > 0 && s.Options.FrameLimit < n {
			n = s.Options.FrameLimit
		}
		jobs = append(jobs, e.newJob(s.Backend, s.Options, n))
	}
	for _, an := range analyses {
		job := e.newJob(an.Backend, LLMOptions{}, p.Study.Len())
		job.batch = FramesPerCoordinate
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		return nil, nil, 0, nil
	}
	if j, err := e.walk(ctx, jobs); err != nil {
		return nil, nil, j, fmt.Errorf("core: %s: %w", jobs[j].b.Name(), err)
	}
	swept := make([]BackendSweep, len(sweeps))
	for i := range swept {
		swept[i] = BackendSweep{Report: p.score(jobs[i].answers), Answers: jobs[i].answers}
	}
	analyzed := make([]*NeighborhoodResult, len(analyses))
	for a, an := range analyses {
		res, err := p.neighborhoodAnalysis(jobs[len(sweeps)+a].answers, an.TractFeet)
		if err != nil {
			return nil, nil, len(sweeps) + a, fmt.Errorf("core: %s: %w", an.Backend.Name(), err)
		}
		analyzed[a] = res
	}
	return swept, analyzed, 0, nil
}

// EvaluateBackend sweeps one backend over the corpus under opts: a Walk
// of one sweep job.
func (e *Evaluator) EvaluateBackend(ctx context.Context, b backend.Backend, opts LLMOptions) (*metrics.ClassReport, error) {
	reports, err := e.EvaluateBackendSet(ctx, []backend.Backend{b}, opts)
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// EvaluateBackendSet sweeps several backends over one walk of the corpus
// under opts and returns their reports in input order: a Walk of one
// sweep job per backend.
func (e *Evaluator) EvaluateBackendSet(ctx context.Context, backends []backend.Backend, opts LLMOptions) ([]*metrics.ClassReport, error) {
	jobs := make([]SweepJob, len(backends))
	for i, b := range backends {
		jobs[i] = SweepJob{Backend: b, Options: opts}
	}
	sweeps, _, _, err := e.Walk(ctx, jobs, nil)
	if err != nil {
		return nil, err
	}
	reports := make([]*metrics.ClassReport, len(sweeps))
	for i := range sweeps {
		reports[i] = sweeps[i].Report
	}
	return reports, nil
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

// frameJob is one job's part in a frame-major walk: the walk asks b
// about corpus frames [0,len(answers)) in chunks of batch (each starting
// at a multiple of batch, the last cut at the end), on frames rendered
// at size and degraded under the resolved capture condition cond, and
// lands each frame's answer vector in its slot of answers.
type frameJob struct {
	b       backend.Backend
	caps    backend.Capabilities
	size    int
	cond    string
	batch   int
	options backend.Options
	answers [][scene.NumIndicators]bool
	// Set by walk: cond's index in the job's group, and the semaphore
	// its backend's Classify calls share (nil when unbounded).
	ci  int
	sem chan struct{}
}

// newJob builds backend b's frame job over the first n frames under
// opts, in chunks of its preferred batch.
func (e *Evaluator) newJob(b backend.Backend, opts LLMOptions, n int) frameJob {
	caps := b.Capabilities()
	return frameJob{
		b:       b,
		caps:    caps,
		size:    e.pipe.renderSizeFor(caps),
		cond:    dataset.ResolveCondition(e.pipe.Study.Condition, opts.Condition),
		batch:   max(1, caps.PreferredBatch),
		options: opts.backendOptions(),
		answers: make([][scene.NumIndicators]bool, n),
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

// frameGroup is the jobs of a walk that share a render size: the frames
// [0,n) they ask about, the distinct capture conditions they ask under,
// whether any job under each consumes perception features, and the
// spans of frames the walk's workers claim for them.
type frameGroup struct {
	size     int
	n        int
	jobs     []int
	conds    []string
	perceive []bool
	spans    [][2]int
}

// walk is the worker pool under every Walk. It groups the jobs by
// render size, splits each group's frames, up to its jobs' largest
// frame count, into frameSpans of its jobs' batch sizes, and runs as many
// workers as the budget, or as the distinct backends asked if more
// (capped at the number of spans), which claim spans in order. For each
// span a worker gets each frame once at the group's size through
// RenderCache.RenderInto into buffers it owns, derives each capture
// condition once, perceives each (frame, condition) once if some job
// consumes features, then asks every job in input order about its
// chunks of the span, while the span's frames are still in cache. Jobs
// that ask one backend share the semaphore bounding its concurrent
// Classify calls to its MaxConcurrency.
//
// The first error cancels the rest. Errors are kept per job and the
// first in input order is returned with its job's index, skipping the
// cancellations the first error induced in other jobs; an error in
// getting or perceiving a frame belongs to its group's first job.
// Otherwise a canceled context returns its error.
func (e *Evaluator) walk(ctx context.Context, jobs []frameJob) (int, error) {
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
		g.n = max(g.n, len(job.answers))
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
		g.spans = frameSpans(g.n, batches)
		for si := range g.spans {
			units = append(units, unit{g, si})
		}
	}
	sems := make(map[backend.Backend]chan struct{})
	for j := range jobs {
		sems[jobs[j].b] = nil
	}
	workers := max(1, min(max(e.workers, len(sems)), len(units)))
	// Workers above a backend's cap queue only for its classification.
	for j := range jobs {
		job := &jobs[j]
		if mc := job.caps.MaxConcurrency; mc > 0 && mc < workers {
			if sems[job.b] == nil {
				sems[job.b] = make(chan struct{}, mc)
			}
			job.sem = sems[job.b]
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
				if j, err := e.visit(ctx, &fr, u.g, u.si, jobs); err != nil {
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
// and degrades frames into, and per condition the span's frames and
// their perception features, plus the items of one Classify call.
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
func (e *Evaluator) visit(ctx context.Context, fr *frames, g *frameGroup, si int, jobs []frameJob) (int, error) {
	p := e.pipe
	start, end := g.spans[si][0], g.spans[si][1]
	first := g.jobs[0]
	fr.prepare(len(g.conds), end-start)
	for idx := start; idx < end; idx++ {
		k := idx - start
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
			if !g.perceive[c] {
				continue
			}
			if fr.feats[c][k], err = vlm.Perceive(fr.imgs[c][k]); err != nil {
				return first, fmt.Errorf("core: perceive %s: %w", p.Study.Frames[idx].Scene.ID, err)
			}
		}
	}
	for _, j := range g.jobs {
		job := &jobs[j]
		c := job.ci
		stop := min(end, len(job.answers))
		for cs := start; cs < stop; cs += job.batch {
			items := fr.items[:0]
			for idx := cs; idx < min(cs+job.batch, stop); idx++ {
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
			for k := range items {
				if len(res.Answers[k]) != scene.NumIndicators {
					return j, fmt.Errorf("core: backend %s answered %d indicators for %s, want %d", job.b.Name(), len(res.Answers[k]), items[k].ID, scene.NumIndicators)
				}
				copy(job.answers[cs+k][:], res.Answers[k])
			}
		}
	}
	return 0, nil
}
