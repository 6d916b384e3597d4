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
// supervised ones on the corpus split), walks the corpus once for every
// cell the run must evaluate, and streams Events to the sink in spec
// order. The same spec and seed always produce bit-identical reports.
type Runner struct {
	cfg RunnerConfig
}

// NewRunner builds a runner.
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{cfg: cfg}
}

// Run executes the spec. It evaluates every fresh regular-sweep cell
// and every unrestored analysis in one frame-major walk of the corpus
// (core.Evaluator.Walk), which starts right after the start event of the
// first step that needs it; each step's events follow in spec order.
// Sweeps that ask one backend under the same options share its answers.
// Vote sweeps vote the answers that walk recorded; the members it drew
// no answers for under the vote's options are asked in a second walk,
// shared by every vote sweep of the run, at the first of them. The
// context cancels the run mid-walk (workers stop) or between steps: the
// first error is returned, and a RunFailed event closes the stream. On
// success the returned Result holds every sweep report and analysis
// output in spec order.
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

	pipe, err := core.NewPipeline(spec.Dataset)
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
	rn := &run{
		spec:   &spec,
		cp:     r.cfg.Checkpoint,
		ev:     pipe.NewEvaluator(core.EvalConfig{Workers: workers}),
		env:    pipe.BackendEnv(),
		opened: make(map[string]backend.Backend, len(spec.Backends)),
		drawn:  make(map[cell]core.BackendSweep),
	}
	defer func() {
		// Retired backends release what they own (HTTP idle
		// connections); best-effort — a close failure cannot un-finish
		// the run.
		for _, b := range rn.opened {
			_ = backend.Close(b)
		}
	}()
	if err := rn.plan(); err != nil {
		return fail(err)
	}

	// A step that makes no evaluator call (a vote over recorded answers,
	// a restored cell, a step the walk already served) would not notice
	// cancellation, so every step checks first.
	canceled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiment: %s: %w", spec.Name, err)
		}
		return nil
	}

	sink(Event{Kind: RunStarted, Spec: spec.Name})
	for i := range spec.Sweeps {
		sw := &spec.Sweeps[i]
		if err := canceled(); err != nil {
			return fail(err)
		}
		sink(Event{Kind: SweepStarted, Spec: spec.Name, Step: sw.Name})
		var sr SweepResult
		var restored []bool
		if sw.VoteTopOf != "" {
			sr, restored, err = rn.voteSweep(ctx, i)
		} else {
			sr, restored, err = rn.sweep(ctx, i)
		}
		if err != nil {
			return fail(err)
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
		out, restored := rn.cp.analysis(cell)
		if !restored {
			if err := rn.execute(ctx, &rn.first); err != nil {
				return fail(err)
			}
			out = rn.first.results[slices.Index(rn.first.analyses, i)]
		}
		res.Analyses = append(res.Analyses, AnalysisResult{
			Name:      a.Name,
			Backend:   a.Backend,
			TractFeet: tractFeet(a),
			Result:    out,
		})
		sink(Event{Kind: AnalysisFinished, Spec: spec.Name, Step: a.Name, Cell: cell, Restored: restored, Analysis: out})
	}
	res.Finished = time.Now()
	sink(Event{Kind: RunFinished, Spec: spec.Name})
	return res, nil
}

// tractFeet is an analysis step's tract cell size, defaulting to 5000.
func tractFeet(a *AnalysisSpec) float64 {
	if a.TractFeet == 0 {
		return 5000
	}
	return a.TractFeet
}

// sweepStep labels a sweep in error messages.
func sweepStep(name string) string { return fmt.Sprintf("sweep %q", name) }

// run is one Run's evaluation state: the sweeps' resolved options, the
// backends opened so far, the run's two walks, and the answers they
// drew.
type run struct {
	spec   *Spec
	cp     *Checkpoint
	ev     *core.Evaluator
	env    backend.Env
	opened map[string]backend.Backend
	opts   []core.LLMOptions
	// first asks every fresh regular-sweep cell and unrestored analysis;
	// second, the vote members first drew no answers for.
	first, second walkPlan
	drawn         map[cell]core.BackendSweep
}

// cell is a backend under resolved sweep options. Answers are
// deterministic in it, so every sweep and vote that asks the same cell
// shares one evaluation.
type cell struct {
	backend string
	opts    core.LLMOptions
}

// walkPlan is one walk of a run: its sweep cells, then the indices of
// its analyses in the spec, with the step each job is planned for, and,
// once done, the analyses' results.
type walkPlan struct {
	cells    []cell
	analyses []int
	steps    []string
	done     bool
	results  []*core.NeighborhoodResult
}

// ask plans cell c for step, unless the walk already asks it.
func (w *walkPlan) ask(c cell, step string) {
	if !slices.Contains(w.cells, c) {
		w.cells = append(w.cells, c)
		w.steps = append(w.steps, step)
	}
}

func (rn *run) errorf(step string, err error) error {
	return fmt.Errorf("experiment: %s: %s: %w", rn.spec.Name, step, err)
}

// plan resolves the sweeps' options and lays out the first walk from
// the checkpoint.
func (rn *run) plan() error {
	for i, sw := range rn.spec.Sweeps {
		opts, err := sweepOptions(rn.spec.Dataset, sw.Options)
		if err != nil {
			return rn.errorf(sweepStep(sw.Name), err)
		}
		rn.opts = append(rn.opts, opts)
		for _, name := range sw.Backends {
			if _, ok := rn.cp.report(SweepCellID(sw.Name, name)); !ok {
				rn.first.ask(cell{name, rn.opts[i]}, sweepStep(sw.Name))
			}
		}
	}
	for a, an := range rn.spec.Analyses {
		if _, ok := rn.cp.analysis(AnalysisCellID(an.Name)); !ok {
			rn.first.analyses = append(rn.first.analyses, a)
			rn.first.steps = append(rn.first.steps, fmt.Sprintf("analysis %q", an.Name))
		}
	}
	return nil
}

// open returns the named backend, opening it on first use: backends
// open once per run and are shared by every job that names them, so a
// trained detector trains exactly once no matter how many steps sweep
// it.
func (rn *run) open(ctx context.Context, name string) (backend.Backend, error) {
	if b, ok := rn.opened[name]; ok {
		return b, nil
	}
	b, err := backend.OpenWith(ctx, rn.spec.Backends[name], rn.env)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: backend %q: %w", rn.spec.Name, name, err)
	}
	rn.opened[name] = b
	return b, nil
}

// execute runs walk w once: it opens (and trains) every backend the
// walk asks, then walks. Later calls return at once.
func (rn *run) execute(ctx context.Context, w *walkPlan) error {
	if w.done {
		return nil
	}
	w.done = true
	sweeps := make([]core.SweepJob, len(w.cells))
	for k, c := range w.cells {
		b, err := rn.open(ctx, c.backend)
		if err != nil {
			return err
		}
		sweeps[k] = core.SweepJob{Backend: b, Options: c.opts}
	}
	analyses := make([]core.AnalysisJob, len(w.analyses))
	for k, a := range w.analyses {
		b, err := rn.open(ctx, rn.spec.Analyses[a].Backend)
		if err != nil {
			return err
		}
		analyses[k] = core.AnalysisJob{Backend: b, TractFeet: tractFeet(&rn.spec.Analyses[a])}
	}
	swept, results, failed, err := rn.ev.Walk(ctx, sweeps, analyses)
	if err != nil {
		return rn.errorf(w.steps[failed], err)
	}
	for k, c := range w.cells {
		rn.drawn[c] = swept[k]
	}
	w.results = results
	return nil
}

// sweep returns regular sweep i's reports in spec order and which cells
// were restored from the checkpoint. A report depends only on (spec,
// seed, backend, options), never on the other jobs of the walk — the
// bit-identity the golden serial-vs-concurrent tests pin — so a resumed
// run reproduces the uninterrupted run's reports exactly.
func (rn *run) sweep(ctx context.Context, i int) (SweepResult, []bool, error) {
	sw := &rn.spec.Sweeps[i]
	sr := SweepResult{Name: sw.Name, Reports: make([]BackendReport, len(sw.Backends))}
	restored := make([]bool, len(sw.Backends))
	for k, name := range sw.Backends {
		cr, ok := rn.cp.report(SweepCellID(sw.Name, name))
		if !ok {
			if err := rn.execute(ctx, &rn.first); err != nil {
				return SweepResult{}, nil, err
			}
			cr.Report = rn.drawn[cell{name, rn.opts[i]}].Report
		}
		sr.Reports[k] = BackendReport{Backend: name, Report: cr.Report}
		restored[k] = ok
	}
	return sr, restored, nil
}

// committee returns vote sweep v's members in rank order:
// ensemble.SelectTop over its source sweep's reports (average accuracy,
// ties broken by backend name — the paper's deterministic top-three
// selection).
func (rn *run) committee(ctx context.Context, v int) ([]string, error) {
	sw := &rn.spec.Sweeps[v]
	src := slices.IndexFunc(rn.spec.Sweeps, func(s SweepSpec) bool { return s.Name == sw.VoteTopOf })
	prev, _, err := rn.sweep(ctx, src)
	if err != nil {
		return nil, err
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
		return nil, rn.errorf(sweepStep(sw.Name), err)
	}
	names := make([]string, len(top))
	for m, s := range top {
		names[m] = s.ID
	}
	return names, nil
}

// walkSecond runs the first walk if it has not run, then asks, in one
// walk, every member of every vote sweep the run evaluates that the
// first walk drew no answers for under the vote's options. Later calls
// return at once.
func (rn *run) walkSecond(ctx context.Context) error {
	if err := rn.execute(ctx, &rn.first); err != nil || rn.second.done {
		return err
	}
	for v, sw := range rn.spec.Sweeps {
		if _, ok := rn.cp.report(SweepCellID(sw.Name, sw.Name)); ok || sw.VoteTopOf == "" {
			continue
		}
		names, err := rn.committee(ctx, v)
		if err != nil {
			return err
		}
		for _, name := range names {
			if c := (cell{name, rn.opts[v]}); rn.drawn[c].Report == nil {
				rn.second.ask(c, sweepStep(sw.Name))
			}
		}
	}
	return rn.execute(ctx, &rn.second)
}

// voteSweep majority-votes vote sweep v's committee frame by frame over
// the answers its members drew under the vote's options (compared with
// the capture condition resolved, so spelling the corpus's own condition
// out changes nothing), after the second walk asked the members that had
// none. Either way the report equals a backend.NewVoting committee's.
func (rn *run) voteSweep(ctx context.Context, v int) (SweepResult, []bool, error) {
	sw := &rn.spec.Sweeps[v]
	// A vote sweep is one cell, named after the sweep itself.
	if cr, ok := rn.cp.report(SweepCellID(sw.Name, sw.Name)); ok {
		return SweepResult{
			Name:    sw.Name,
			Reports: []BackendReport{{Backend: sw.Name, Members: cr.Members, Report: cr.Report}},
		}, []bool{true}, nil
	}
	if err := rn.walkSecond(ctx); err != nil {
		return SweepResult{}, nil, err
	}
	names, err := rn.committee(ctx, v)
	if err != nil {
		return SweepResult{}, nil, err
	}
	members := make([]core.BackendSweep, len(names))
	for m, name := range names {
		members[m] = rn.drawn[cell{name, rn.opts[v]}]
	}
	report, err := rn.ev.Vote(members)
	if err != nil {
		return SweepResult{}, nil, rn.errorf(sweepStep(sw.Name), err)
	}
	return SweepResult{
		Name:    sw.Name,
		Reports: []BackendReport{{Backend: sw.Name, Members: names, Report: report}},
	}, []bool{false}, nil
}
