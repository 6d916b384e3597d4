package experiment

import (
	"context"
	"fmt"
	"slices"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/ensemble"
	"nbhd/internal/metrics"
)

// EventKind discriminates runner progress events.
type EventKind string

const (
	// RunStarted opens a run, after the corpus is assembled.
	RunStarted EventKind = "run_started"
	// SweepStarted opens one sweep.
	SweepStarted EventKind = "sweep_started"
	// ReportReady delivers one backend's report within a sweep.
	ReportReady EventKind = "report_ready"
	// SweepFinished closes one sweep.
	SweepFinished EventKind = "sweep_finished"
	// AnalysisStarted opens one analysis step.
	AnalysisStarted EventKind = "analysis_started"
	// AnalysisFinished closes one analysis step with its result.
	AnalysisFinished EventKind = "analysis_finished"
	// RunFinished closes a successful run.
	RunFinished EventKind = "run_finished"
	// RunFailed closes a failed run; Err carries the cause.
	RunFailed EventKind = "run_failed"
)

// Event is one typed progress notification from a run. Events are
// emitted in a deterministic order regardless of the concurrency
// underneath: sweeps in spec order, reports in each sweep's backend
// order, analyses after sweeps — so any consumer (a progress bar, a
// log, a test) sees the same stream for the same spec.
type Event struct {
	// Kind is the event discriminator.
	Kind EventKind
	// Spec is the experiment name.
	Spec string
	// Step is the sweep or analysis name, for step-scoped events.
	Step string
	// Backend is the backend's spec name, for ReportReady events.
	Backend string
	// Cell is the stable cell ID (see SweepCellID / AnalysisCellID) for
	// ReportReady and AnalysisFinished events — the unit a checkpoint
	// journal records.
	Cell string
	// Restored marks a ReportReady or AnalysisFinished event whose
	// payload was spliced in from RunnerConfig.Checkpoint instead of
	// being re-evaluated.
	Restored bool
	// Report is the backend's confusion report, for ReportReady.
	Report *metrics.ClassReport
	// Members is a vote cell's committee in rank order, for ReportReady
	// events of vote sweeps; nil otherwise. Journaling consumers persist
	// it alongside Report so a restored vote cell reproduces its
	// artifact exactly.
	Members []string
	// Analysis is the step result, for AnalysisFinished.
	Analysis *core.NeighborhoodResult
	// Err is the failure cause, for RunFailed.
	Err error
}

// Sink consumes progress events; nil sinks are allowed and discard
// everything. Sinks are called synchronously from the runner goroutine,
// so slow consumers backpressure the run but never race it.
type Sink func(Event)

// BackendReport is one backend's evaluation within a sweep.
type BackendReport struct {
	// Backend is the backend's name in the spec (for vote sweeps, the
	// sweep's own name).
	Backend string `json:"backend"`
	// Members lists a vote sweep's committee in rank order.
	Members []string `json:"members,omitempty"`
	// Report is the per-class confusion report.
	Report *metrics.ClassReport `json:"report"`
}

// SweepResult is one executed sweep.
type SweepResult struct {
	Name string `json:"name"`
	// Reports are in the sweep's backend order (one entry for vote
	// sweeps).
	Reports []BackendReport `json:"reports"`
}

// Report returns the named backend's report, or nil.
func (s *SweepResult) Report(backendName string) *metrics.ClassReport {
	for i := range s.Reports {
		if s.Reports[i].Backend == backendName {
			return s.Reports[i].Report
		}
	}
	return nil
}

// AnalysisResult is one executed analysis step.
type AnalysisResult struct {
	Name      string  `json:"name"`
	Backend   string  `json:"backend"`
	TractFeet float64 `json:"tract_feet"`
	// Result is the full neighborhood analysis output.
	Result *core.NeighborhoodResult `json:"result"`
}

// Result is a completed run.
type Result struct {
	Spec     Spec             `json:"spec"`
	Sweeps   []SweepResult    `json:"sweeps,omitempty"`
	Analyses []AnalysisResult `json:"analyses,omitempty"`
	// Started and Finished bracket the run (wall clock; excluded from
	// the diffable report artifacts).
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// Sweep returns the named sweep's result, or nil.
func (r *Result) Sweep(name string) *SweepResult {
	for i := range r.Sweeps {
		if r.Sweeps[i].Name == name {
			return &r.Sweeps[i]
		}
	}
	return nil
}

// Analysis returns the named analysis result, or nil.
func (r *Result) Analysis(name string) *AnalysisResult {
	for i := range r.Analyses {
		if r.Analyses[i].Name == name {
			return &r.Analyses[i]
		}
	}
	return nil
}

// RunnerConfig tunes spec execution.
type RunnerConfig struct {
	// Workers overrides the spec's evaluation worker budget when
	// positive (a command-line -workers flag wins over the document).
	Workers int
	// Checkpoint resumes an interrupted run: cells present in it are
	// restored instead of re-evaluated (their events carry Restored),
	// and only the missing cells execute. The checkpoint must come from
	// the same spec and seed. Nil runs everything.
	Checkpoint *Checkpoint
}

// Runner executes specs on the concurrent evaluation engine. A Runner
// is stateless across runs; each Run assembles the spec's corpus,
// opens the spec's backends through the registry (training the
// supervised ones on the corpus split), executes sweeps and analyses
// in order, and streams Events to the sink. The same spec and seed
// always produce bit-identical reports.
type Runner struct {
	cfg RunnerConfig
}

// NewRunner builds a runner.
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{cfg: cfg}
}

// Run executes the spec. The context cancels the run mid-sweep (workers
// stop) or between steps: the first error is returned, and a RunFailed
// event closes the stream. On success the returned Result holds every
// sweep report and analysis output in spec order.
func (r *Runner) Run(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
	if sink == nil {
		sink = func(Event) {}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Started: time.Now()}
	fail := func(err error) (*Result, error) {
		sink(Event{Kind: RunFailed, Spec: spec.Name, Err: err})
		return nil, err
	}

	pipe, err := core.NewPipeline(spec.Dataset.coreConfig())
	if err != nil {
		return fail(fmt.Errorf("experiment: %s: %w", spec.Name, err))
	}
	// Close flushes the persistent frame store's index (a no-op without
	// a store_dir); best-effort, like the backend closes below.
	defer func() { _ = pipe.Close() }()
	workers := spec.Workers
	if r.cfg.Workers > 0 {
		workers = r.cfg.Workers
	}
	ev := pipe.NewEvaluator(core.EvalConfig{Workers: workers})
	env := pipe.BackendEnv()

	// Backends open once per run and are shared by every sweep and
	// analysis that names them — a trained detector trains exactly
	// once no matter how many steps sweep it.
	opened := make(map[string]backend.Backend, len(spec.Backends))
	defer func() {
		// Retired backends release what they own (HTTP idle
		// connections); best-effort — a close failure cannot un-finish
		// the run.
		for _, b := range opened {
			_ = backend.Close(b)
		}
	}()
	open := func(name string) (backend.Backend, error) {
		if b, ok := opened[name]; ok {
			return b, nil
		}
		b, err := backend.OpenWith(ctx, spec.Backends[name], env)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: backend %q: %w", spec.Name, name, err)
		}
		opened[name] = b
		return b, nil
	}

	// A step that makes no evaluator call (a vote over recorded answers,
	// a restored cell) would not notice cancellation, so every step
	// checks first.
	canceled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiment: %s: %w", spec.Name, err)
		}
		return nil
	}
	// Each regular sweep's fresh answers, for vote sweeps over it.
	drawn := make(map[string]drawnAnswers, len(spec.Sweeps))
	keep := keepFrames(&spec, r.cfg.Checkpoint)

	sink(Event{Kind: RunStarted, Spec: spec.Name})
	for i := range spec.Sweeps {
		sw := &spec.Sweeps[i]
		if err := canceled(); err != nil {
			return fail(err)
		}
		sink(Event{Kind: SweepStarted, Spec: spec.Name, Step: sw.Name})
		opts, err := spec.Dataset.sweepOptions(sw.Options)
		if err != nil {
			return fail(fmt.Errorf("experiment: %s: sweep %q: %w", spec.Name, sw.Name, err))
		}
		var sr SweepResult
		var restored []bool
		if sw.VoteTopOf != "" {
			sr, restored, err = r.runVoteSweep(ctx, ev, res, sw, opts, drawn[sw.VoteTopOf], open, keep[i])
		} else {
			d := drawnAnswers{opts: opts}
			sr, restored, d.sweeps, err = r.runSweep(ctx, ev, sw, opts, open, keep[i])
			drawn[sw.Name] = d
		}
		if err != nil {
			return fail(fmt.Errorf("experiment: %s: sweep %q: %w", spec.Name, sw.Name, err))
		}
		res.Sweeps = append(res.Sweeps, sr)
		for k := range sr.Reports {
			sink(Event{
				Kind:     ReportReady,
				Spec:     spec.Name,
				Step:     sw.Name,
				Backend:  sr.Reports[k].Backend,
				Cell:     SweepCellID(sw.Name, sr.Reports[k].Backend),
				Restored: restored[k],
				Report:   sr.Reports[k].Report,
				Members:  sr.Reports[k].Members,
			})
		}
		sink(Event{Kind: SweepFinished, Spec: spec.Name, Step: sw.Name})
	}
	for i := range spec.Analyses {
		a := &spec.Analyses[i]
		cell := AnalysisCellID(a.Name)
		if err := canceled(); err != nil {
			return fail(err)
		}
		sink(Event{Kind: AnalysisStarted, Spec: spec.Name, Step: a.Name})
		tractFeet := a.TractFeet
		if tractFeet == 0 {
			tractFeet = 5000
		}
		out, restored := r.cfg.Checkpoint.analysis(cell)
		if !restored {
			b, err := open(a.Backend)
			if err != nil {
				return fail(err)
			}
			out, err = ev.AnalyzeNeighborhood(ctx, b, tractFeet)
			if err != nil {
				return fail(fmt.Errorf("experiment: %s: analysis %q: %w", spec.Name, a.Name, err))
			}
		}
		res.Analyses = append(res.Analyses, AnalysisResult{
			Name:      a.Name,
			Backend:   a.Backend,
			TractFeet: tractFeet,
			Result:    out,
		})
		sink(Event{Kind: AnalysisFinished, Spec: spec.Name, Step: a.Name, Cell: cell, Restored: restored, Analysis: out})
	}
	res.Finished = time.Now()
	sink(Event{Kind: RunFinished, Spec: spec.Name})
	return res, nil
}

// drawnAnswers is what a regular sweep's freshly evaluated cells drew:
// the options they ran under (condition resolved) and each backend's
// sweep by name. Restored cells have no entry.
type drawnAnswers struct {
	opts   core.LLMOptions
	sweeps map[string]core.BackendSweep
}

// runSweep evaluates a regular sweep's backends concurrently and
// returns their reports in spec order, which cells were restored from
// the checkpoint, and the evaluated cells' sweeps by backend name.
// Restored cells splice in their journaled report; only the missing
// backends open (and, for supervised kinds, train) and evaluate — the
// resume property the lab daemon's journal leans on. keep says whether
// a later step needs the sweep's frames (see keepFrames).
func (r *Runner) runSweep(ctx context.Context, ev *core.Evaluator, sw *SweepSpec, opts core.LLMOptions, open func(string) (backend.Backend, error), keep bool) (SweepResult, []bool, map[string]core.BackendSweep, error) {
	sr := SweepResult{Name: sw.Name, Reports: make([]BackendReport, len(sw.Backends))}
	restored := make([]bool, len(sw.Backends))
	var missing []int
	for i, name := range sw.Backends {
		if cr, ok := r.cfg.Checkpoint.report(SweepCellID(sw.Name, name)); ok {
			sr.Reports[i] = BackendReport{Backend: name, Report: cr.Report}
			restored[i] = true
			continue
		}
		missing = append(missing, i)
	}
	fresh := make(map[string]core.BackendSweep, len(missing))
	if len(missing) > 0 {
		backends := make([]backend.Backend, len(missing))
		for k, i := range missing {
			b, err := open(sw.Backends[i])
			if err != nil {
				return SweepResult{}, nil, nil, err
			}
			backends[k] = b
		}
		// Each backend's report depends only on (spec, seed, backend),
		// never on which other backends share the evaluation set — the
		// bit-identity the golden serial-vs-concurrent tests pin — so
		// evaluating the missing subset reproduces the uninterrupted
		// run's reports exactly.
		sweeps, err := ev.SweepBackendSet(ctx, backends, opts, keep)
		if err != nil {
			return SweepResult{}, nil, nil, err
		}
		for k, i := range missing {
			sr.Reports[i] = BackendReport{Backend: sw.Backends[i], Report: sweeps[k].Report}
			fresh[sw.Backends[i]] = sweeps[k]
		}
	}
	return sr, restored, fresh, nil
}

// runVoteSweep majority-votes the top backends of an earlier sweep:
// members are ranked by ensemble.SelectTop (average accuracy, ties
// broken by backend name — the paper's deterministic top-three
// selection) and their answers are voted frame by frame. A member the
// source sweep evaluated under this sweep's options (compared with the
// capture condition resolved, so spelling the corpus's own condition
// out changes nothing) contributes the answers it already drew; the
// others (the options differ, or the source cell was restored from a
// checkpoint) are swept again under this sweep's options first. Either
// way the report equals a backend.NewVoting committee's.
func (r *Runner) runVoteSweep(ctx context.Context, ev *core.Evaluator, res *Result, sw *SweepSpec, opts core.LLMOptions, src drawnAnswers, open func(string) (backend.Backend, error), keep bool) (SweepResult, []bool, error) {
	// A vote sweep is one cell, named after the sweep itself.
	if cr, ok := r.cfg.Checkpoint.report(SweepCellID(sw.Name, sw.Name)); ok {
		return SweepResult{
			Name:    sw.Name,
			Reports: []BackendReport{{Backend: sw.Name, Members: cr.Members, Report: cr.Report}},
		}, []bool{true}, nil
	}
	prev := res.Sweep(sw.VoteTopOf)
	if prev == nil {
		return SweepResult{}, nil, fmt.Errorf("source sweep %q has no result", sw.VoteTopOf)
	}
	k := sw.VoteTopK
	if k == 0 {
		k = 3
	}
	reports := make(map[string]*metrics.ClassReport, len(prev.Reports))
	for _, br := range prev.Reports {
		reports[br.Backend] = br.Report
	}
	top, err := ensemble.SelectTop(reports, k)
	if err != nil {
		return SweepResult{}, nil, err
	}
	names := make([]string, len(top))
	sweeps := make([]core.BackendSweep, len(top))
	var missing []int
	for i, s := range top {
		names[i] = s.ID
		if d, ok := src.sweeps[s.ID]; ok && src.opts == opts {
			sweeps[i] = d
			continue
		}
		missing = append(missing, i)
	}
	if len(missing) > 0 {
		members := make([]backend.Backend, len(missing))
		for j, i := range missing {
			b, err := open(names[i])
			if err != nil {
				return SweepResult{}, nil, err
			}
			members[j] = b
		}
		swept, err := ev.SweepBackendSet(ctx, members, opts, keep)
		if err != nil {
			return SweepResult{}, nil, err
		}
		for j, i := range missing {
			sweeps[i] = swept[j]
		}
	}
	report, err := ev.Vote(sweeps)
	if err != nil {
		return SweepResult{}, nil, err
	}
	return SweepResult{
		Name: sw.Name,
		Reports: []BackendReport{{
			Backend: sw.Name,
			Members: names,
			Report:  report,
		}},
	}, []bool{false}, nil
}

// keepFrames reports, for each of the spec's sweeps, whether it must
// keep the frames it walks (render them into the pipeline's caches and
// keep their perception features) because a later step will walk the
// corpus again: a later regular sweep with a fresh cell, a later vote
// sweep that must ask members again (its resolved options differ from
// its source's, or a source cell was restored), or an analysis that is
// not restored. With a store_dir every sweep keeps its frames, so the
// store serves and persists them. A sweep that keeps nothing renders
// into buffers its workers reuse. The checkpoint decides which cells
// are restored.
func keepFrames(spec *Spec, cp *Checkpoint) []bool {
	later := spec.Dataset.StoreDir != ""
	for _, a := range spec.Analyses {
		if _, ok := cp.analysis(AnalysisCellID(a.Name)); !ok {
			later = true
		}
	}
	keep := make([]bool, len(spec.Sweeps))
	for i := len(spec.Sweeps) - 1; i >= 0; i-- {
		keep[i] = later
		later = later || walksCorpus(spec, i, cp)
	}
	return keep
}

// walksCorpus reports whether sweep i asks any backend about frames
// when run against the checkpoint.
func walksCorpus(spec *Spec, i int, cp *Checkpoint) bool {
	sw := &spec.Sweeps[i]
	if sw.VoteTopOf == "" {
		for _, name := range sw.Backends {
			if _, ok := cp.report(SweepCellID(sw.Name, name)); !ok {
				return true
			}
		}
		return false
	}
	if _, ok := cp.report(SweepCellID(sw.Name, sw.Name)); ok {
		return false
	}
	src := slices.IndexFunc(spec.Sweeps[:i], func(s SweepSpec) bool { return s.Name == sw.VoteTopOf })
	if src < 0 {
		return true
	}
	for _, name := range spec.Sweeps[src].Backends {
		if _, ok := cp.report(SweepCellID(sw.VoteTopOf, name)); ok {
			return true
		}
	}
	opts, err := spec.Dataset.sweepOptions(sw.Options)
	srcOpts, srcErr := spec.Dataset.sweepOptions(spec.Sweeps[src].Options)
	return err != nil || srcErr != nil || opts != srcOpts
}
