// Package lab is the continuous-evaluation daemon over the experiment
// API: a long-lived scheduler that owns a workspace directory, executes
// spec runs one at a time on experiment.Runner, checkpoints sweep
// progress cell by cell, and diffs every finished run against its job's
// accepted baseline.
//
// # Workspace
//
// A workspace is a directory the lab owns exclusively (an advisory
// LOCK, the shared internal/lockfile helper, excludes a second daemon;
// the lock dies with the process, so a SIGKILL never wedges the
// workspace):
//
//	<ws>/LOCK                  single-daemon advisory lock
//	<ws>/state.json            jobs, runs, queue history (atomic rename)
//	<ws>/runs/                 one experiment.Store of run artifacts
//	<ws>/runs/run-<id>/        manifest + per-step report files
//	<ws>/journal/<id>.jsonl    in-flight run checkpoint (see journal.go)
//
// # Lifecycle
//
// Jobs come from a strict-JSON Config: each names a spec (built-in name
// or spec file), an optional interval trigger, and a baseline policy.
// Due runs enter a priority queue ((due time, enqueue order)) and
// execute serially. As a run's ReportReady / AnalysisFinished events
// stream out, each completed cell is appended to the run's journal and
// fsynced — so a killed daemon reopens the workspace, finds the
// interrupted run, and resumes it, re-running only the missing cells.
// The runner evaluates every fresh cell of a run in one walk of the
// corpus, so they reach the journal when that walk ends, in spec order,
// not sweep by sweep: a kill during the walk loses all of them.
// Because evaluation is deterministic in (spec, seed) and cell payloads
// are exact (integer confusion counts; float64 JSON round-trips), the
// resumed run's final artifacts are byte-identical to an uninterrupted
// run's.
//
// A finished run is diffed against the job's baseline with
// experiment.DiffRuns (byte-exact, with an optional per-metric epsilon
// envelope); the auto policy promotes clean runs, the manual policy
// waits for POST /v1/promote. Timing lives in state.json, never in
// artifacts, so diffs stay byte-exact.
//
// The HTTP surface (Handler) mirrors internal/serve's conventions
// through the shared internal/wire shell: strict bounded JSON bodies,
// wire.ErrorResponse error bodies, /healthz flipping 503 on drain, and
// a /metricsz counter snapshot. See docs/LAB.md for the full contract.
package lab

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nbhd/internal/experiment"
	"nbhd/internal/lockfile"
	"nbhd/internal/wire"
)

// Options tunes a Lab beyond its Config — injection points for tests,
// all optional.
type Options struct {
	// Clock overrides time.Now for state timestamps and scheduling.
	Clock func() time.Time
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// CellHook, when set, is called synchronously after each completed
	// cell's event is processed (journaled, for fresh cells). Tests use
	// it to freeze a run at an exact cell boundary before simulating a
	// kill.
	CellHook func(runID, cell string)
}

// Lab is the daemon: one workspace, one scheduler goroutine, one run in
// flight at a time. Open it, serve Handler, and on SIGTERM call Drain
// then Close.
type Lab struct {
	dir   string
	cfg   Config
	opts  Options
	lock  *lockfile.Lock
	store *experiment.Store

	ctx    context.Context
	cancel context.CancelFunc
	kick   chan struct{}
	done   chan struct{}

	ids *wire.IDs

	mu        sync.Mutex
	state     *labState
	queue     runQueue
	qseq      int
	running   string
	runCancel context.CancelFunc
	draining  bool
	aborted   bool
	closed    bool
	met       MetricsSnapshot
}

// Open acquires the workspace and starts the scheduler. Interrupted or
// still-queued runs from a previous daemon re-enter the queue ahead of
// fresh work and resume from their journals.
func Open(dir string, cfg Config, opts Options) (*Lab, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lab: %w", err)
	}
	lock, err := lockfile.Acquire(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("lab: workspace %s is owned by another daemon: %w", dir, err)
	}
	st, err := loadState(dir)
	if err != nil {
		_ = lock.Release()
		return nil, err
	}
	store, err := experiment.NewStore(filepath.Join(dir, "runs"))
	if err != nil {
		_ = lock.Release()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Lab{
		dir:    dir,
		cfg:    cfg,
		opts:   opts,
		lock:   lock,
		store:  store,
		ctx:    ctx,
		cancel: cancel,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		state:  st,
		ids:    wire.NewIDs("lab"),
	}

	now := l.now()
	for i := range cfg.Jobs {
		j := &cfg.Jobs[i]
		js := st.Jobs[j.Name]
		if js == nil {
			js = &jobState{}
			st.Jobs[j.Name] = js
		}
		if j.IntervalSeconds > 0 && js.NextDue.IsZero() {
			// First interval trigger fires at daemon start.
			js.NextDue = now
		}
	}
	// Recover runs a previous daemon left behind: anything it was
	// executing (or had queued) goes back into the queue, interrupted
	// work first, in original order.
	for _, id := range st.Order {
		rec := st.Runs[id]
		if rec == nil {
			continue
		}
		switch rec.Status {
		case StatusRunning:
			rec.Status = StatusInterrupted
			fallthrough
		case StatusInterrupted:
			l.qseq++
			l.queue.push(runItem{runID: id, seq: l.qseq})
			l.logf("lab: recovering interrupted run %s", id)
		case StatusQueued:
			l.qseq++
			l.queue.push(runItem{runID: id, due: now, seq: l.qseq})
		}
	}
	if err := saveState(dir, st); err != nil {
		_ = store.Close()
		_ = lock.Release()
		cancel()
		return nil, err
	}
	go l.loop()
	return l, nil
}

func (l *Lab) now() time.Time { return l.opts.Clock() }

func (l *Lab) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// persistLocked writes state.json unless a simulated kill is in
// progress (after Kill, the on-disk state must stay exactly what a real
// SIGKILL would leave).
func (l *Lab) persistLocked() {
	if l.aborted {
		return
	}
	if err := saveState(l.dir, l.state); err != nil {
		l.logf("lab: persist state: %v", err)
	}
}

func (l *Lab) kickLoop() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// loop is the scheduler: enqueue due interval jobs, execute the front
// of the queue (one run at a time), sleep until the next due time.
func (l *Lab) loop() {
	defer close(l.done)
	for {
		if l.ctx.Err() != nil {
			return
		}
		l.mu.Lock()
		now := l.now()
		l.scheduleDueJobsLocked(now)
		var it runItem
		var ok bool
		if !l.draining {
			it, ok = l.queue.pop(now)
		}
		l.mu.Unlock()
		if ok {
			l.execute(it.runID)
			continue
		}

		l.mu.Lock()
		wake := l.nextWakeLocked()
		l.mu.Unlock()
		var timerC <-chan time.Time
		var timer *time.Timer
		if !wake.IsZero() {
			timer = time.NewTimer(wake.Sub(l.now()))
			timerC = timer.C
		}
		select {
		case <-l.ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return
		case <-l.kick:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// scheduleDueJobsLocked turns due interval triggers into queued runs.
// A job with a run already queued or in flight skips the trigger (the
// queue must not grow faster than runs complete) but its clock still
// advances.
func (l *Lab) scheduleDueJobsLocked(now time.Time) {
	for i := range l.cfg.Jobs {
		j := &l.cfg.Jobs[i]
		if j.IntervalSeconds <= 0 {
			continue
		}
		js := l.state.Jobs[j.Name]
		if js.NextDue.After(now) {
			continue
		}
		js.NextDue = now.Add(time.Duration(j.IntervalSeconds) * time.Second)
		if l.jobActiveLocked(j.Name) {
			continue
		}
		rec := l.newRunLocked(j.Name, nil)
		l.logf("lab: job %s due, enqueued %s", j.Name, rec.ID)
		l.persistLocked()
	}
}

// nextWakeLocked returns the earliest future event the loop must wake
// for: a queued-but-not-yet-due run or an interval trigger.
func (l *Lab) nextWakeLocked() time.Time {
	var wake time.Time
	if due, ok := l.queue.nextDue(); ok {
		wake = due
	}
	for i := range l.cfg.Jobs {
		j := &l.cfg.Jobs[i]
		if j.IntervalSeconds <= 0 {
			continue
		}
		if js := l.state.Jobs[j.Name]; !js.NextDue.IsZero() && (wake.IsZero() || js.NextDue.Before(wake)) {
			wake = js.NextDue
		}
	}
	return wake
}

// jobActiveLocked reports whether the job has a run queued or in
// flight.
func (l *Lab) jobActiveLocked(name string) bool {
	if l.running != "" {
		if rec := l.state.Runs[l.running]; rec != nil && rec.Job == name {
			return true
		}
	}
	for i := range l.queue.items {
		if rec := l.state.Runs[l.queue.items[i].runID]; rec != nil && rec.Job == name {
			return true
		}
	}
	return false
}

// newRunLocked creates a queued run record and enqueues it due now.
func (l *Lab) newRunLocked(job string, raw json.RawMessage) *RunRecord {
	l.state.Seq++
	name := job
	if name == "" {
		name = "adhoc"
	}
	id := fmt.Sprintf("%s-%06d", name, l.state.Seq)
	rec := &RunRecord{ID: id, Job: job, Spec: raw, Status: StatusQueued, Enqueued: l.now()}
	l.state.Runs[id] = rec
	l.state.Order = append(l.state.Order, id)
	l.qseq++
	l.queue.push(runItem{runID: id, due: rec.Enqueued, seq: l.qseq})
	return rec
}

// resolveSpec materializes a run's spec: an ad-hoc run carries its own
// document; a job run re-reads its configured source (built-in or spec
// file) at run start. The returned hash binds the journal to exactly
// this document.
func (l *Lab) resolveSpec(rec *RunRecord) (experiment.Spec, string, error) {
	var spec experiment.Spec
	var err error
	switch {
	case len(rec.Spec) > 0:
		spec, err = experiment.ParseSpec(rec.Spec)
	case rec.Job != "":
		j := l.cfg.job(rec.Job)
		if j == nil {
			return experiment.Spec{}, "", fmt.Errorf("lab: run %s: job %q is no longer configured", rec.ID, rec.Job)
		}
		if specIsFile(j.Spec) {
			var data []byte
			data, err = os.ReadFile(j.Spec)
			if err != nil {
				return experiment.Spec{}, "", fmt.Errorf("lab: job %q: %w", rec.Job, err)
			}
			spec, err = experiment.ParseSpec(data)
		} else {
			spec, err = experiment.Builtin(j.Spec, l.cfg.Builtin)
		}
	default:
		return experiment.Spec{}, "", fmt.Errorf("lab: run %s has neither a job nor a spec", rec.ID)
	}
	if err != nil {
		return experiment.Spec{}, "", err
	}
	if err := spec.Validate(); err != nil {
		return experiment.Spec{}, "", err
	}
	doc, err := json.Marshal(spec)
	if err != nil {
		return experiment.Spec{}, "", fmt.Errorf("lab: %w", err)
	}
	sum := sha256.Sum256(doc)
	return spec, hex.EncodeToString(sum[:]), nil
}

// execute runs one queued run to a terminal status: resolve the spec,
// replay the journal into a checkpoint, run, save artifacts, diff
// against the baseline, apply the promotion policy.
func (l *Lab) execute(runID string) {
	l.mu.Lock()
	rec := l.state.Runs[runID]
	if rec == nil || (rec.Status != StatusQueued && rec.Status != StatusInterrupted) {
		l.mu.Unlock()
		return
	}
	spec, sha, err := l.resolveSpec(rec)
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		rec.Finished = l.now()
		l.met.RunsFailed++
		l.persistLocked()
		l.mu.Unlock()
		l.logf("lab: run %s failed: %v", runID, err)
		return
	}
	var job JobConfig
	if j := l.cfg.job(rec.Job); j != nil {
		job = *j
	}
	rctx, cancel := context.WithCancel(l.ctx)
	defer cancel()
	l.running = runID
	l.runCancel = cancel
	rec.Status = StatusRunning
	rec.Started = l.now()
	rec.Error = ""
	l.met.RunsStarted++
	l.persistLocked()
	l.mu.Unlock()

	cp, journaled := loadJournal(l.dir, runID, sha)
	if cp != nil {
		l.mu.Lock()
		l.met.RunsResumed++
		l.mu.Unlock()
		l.logf("lab: run %s resuming from journal (%d cells)", runID, journaled)
	}
	jw, err := openJournal(l.dir, runID, journalHeader{Run: runID, Job: rec.Job, SpecSHA256: sha})
	if err != nil {
		l.finishRun(rec, nil, job, fmt.Errorf("lab: %w", err))
		return
	}

	var cells, restored int
	sink := func(ev experiment.Event) {
		if ev.Kind != experiment.ReportReady && ev.Kind != experiment.AnalysisFinished {
			return
		}
		if ev.Restored {
			restored++
		} else {
			cells++
			if !l.isAborted() {
				entry := journalEntry{Cell: ev.Cell, Members: ev.Members}
				if ev.Kind == experiment.ReportReady {
					entry.Report = ev.Report
				} else {
					entry.Analysis = ev.Analysis
				}
				if err := jw.appendLine(entry); err != nil {
					l.logf("lab: run %s: journal cell %s: %v", runID, ev.Cell, err)
				}
			}
		}
		l.mu.Lock()
		if ev.Restored {
			l.met.CellsRestored++
		} else {
			l.met.CellsExecuted++
		}
		l.mu.Unlock()
		if l.opts.CellHook != nil {
			l.opts.CellHook(runID, ev.Cell)
		}
	}
	res, runErr := experiment.NewRunner(experiment.RunnerConfig{Workers: job.Workers, Checkpoint: cp}).Run(rctx, spec, sink)
	jw.close()

	l.mu.Lock()
	rec.Cells = cells
	rec.CellsRestored = restored
	l.mu.Unlock()
	l.finishRun(rec, res, job, runErr)
}

func (l *Lab) isAborted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.aborted
}

// finishRun settles a run's terminal status, artifacts, baseline diff,
// and promotion.
func (l *Lab) finishRun(rec *RunRecord, res *experiment.Result, job JobConfig, runErr error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.running = ""
	l.runCancel = nil
	if l.aborted {
		// Simulated kill: leave state.json saying "running" and the
		// journal in place, exactly like a real SIGKILL.
		return
	}
	now := l.now()
	if runErr != nil {
		switch {
		case rec.cancelRequested:
			rec.Status = StatusCanceled
			rec.Finished = now
			_ = os.Remove(journalPath(l.dir, rec.ID))
			l.met.RunsCanceled++
			l.logf("lab: run %s canceled", rec.ID)
		case l.ctx.Err() != nil || l.draining:
			// Drain or shutdown: the journal already holds every
			// completed cell; the next Open resumes from it.
			rec.Status = StatusInterrupted
			l.met.RunsInterrupted++
			l.logf("lab: run %s interrupted (checkpointed %d cells)", rec.ID, rec.Cells+rec.CellsRestored)
		default:
			rec.Status = StatusFailed
			rec.Error = runErr.Error()
			rec.Finished = now
			_ = os.Remove(journalPath(l.dir, rec.ID))
			l.met.RunsFailed++
			l.logf("lab: run %s failed: %v", rec.ID, runErr)
		}
		l.persistLocked()
		return
	}

	// Timing lives in state.json; artifacts must be byte-identical
	// across uninterrupted, resumed, and repeated runs of one spec.
	res.Started, res.Finished = time.Time{}, time.Time{}
	dir, err := l.store.Save(rec.ID, res)
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		rec.Finished = now
		l.met.RunsFailed++
		l.persistLocked()
		return
	}
	_ = os.Remove(journalPath(l.dir, rec.ID))
	if rel, err := filepath.Rel(l.dir, dir); err == nil {
		rec.Dir = rel
	} else {
		rec.Dir = dir
	}
	rec.Status = StatusDone
	rec.Finished = now
	l.met.RunsFinished++

	if rec.Job != "" {
		js := l.state.Jobs[rec.Job]
		if js.Baseline != "" && js.Baseline != rec.ID {
			if base := l.state.Runs[js.Baseline]; base != nil && base.Dir != "" {
				d, derr := experiment.DiffRunsEpsilon(filepath.Join(l.dir, base.Dir), dir, job.Epsilon)
				if derr != nil {
					l.logf("lab: run %s: diff against baseline %s: %v", rec.ID, js.Baseline, derr)
				} else {
					rec.Diff = summarizeDiff(js.Baseline, d)
					switch {
					case d.Identical:
						l.met.DiffsIdentical++
					case d.Clean:
						l.met.DiffsWithinEpsilon++
					default:
						l.met.DiffsDrifted++
						l.logf("lab: run %s drifted from baseline %s: %+v", rec.ID, js.Baseline, rec.Diff.Files)
					}
				}
			}
		}
		policy := job.Baseline
		if policy == "" {
			policy = BaselineAuto
		}
		if policy == BaselineAuto && (js.Baseline == "" || (rec.Diff != nil && rec.Diff.Clean)) {
			js.Baseline = rec.ID
			l.logf("lab: job %s baseline -> %s", rec.Job, rec.ID)
		}
	}
	l.persistLocked()
	l.logf("lab: run %s done (%d cells, %d restored)", rec.ID, rec.Cells, rec.CellsRestored)
}

// Enqueue queues a run of a configured job, due immediately.
func (l *Lab) Enqueue(jobName string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return "", errDraining
	}
	if l.cfg.job(jobName) == nil {
		return "", fmt.Errorf("lab: unknown job %q", jobName)
	}
	rec := l.newRunLocked(jobName, nil)
	l.persistLocked()
	l.kickLoop()
	return rec.ID, nil
}

// EnqueueSpec queues a one-shot ad-hoc run of an inline spec document.
// The document is validated here — a malformed or unknown-field spec
// never enters the queue — and persisted with the run so it survives
// daemon restarts.
func (l *Lab) EnqueueSpec(doc json.RawMessage) (string, error) {
	spec, err := experiment.ParseSpec(doc)
	if err != nil {
		return "", err
	}
	if err := spec.Validate(); err != nil {
		return "", err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return "", errDraining
	}
	rec := l.newRunLocked("", doc)
	l.persistLocked()
	l.kickLoop()
	return rec.ID, nil
}

// errDraining marks enqueue rejections during drain; the HTTP layer
// maps it to 503.
var errDraining = fmt.Errorf("lab: daemon is draining")

// Promote sets a finished run as its job's accepted baseline and
// returns the job name.
func (l *Lab) Promote(runID string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.state.Runs[runID]
	if rec == nil {
		return "", fmt.Errorf("lab: unknown run %q", runID)
	}
	if rec.Job == "" {
		return "", fmt.Errorf("lab: run %s is ad-hoc and has no job to promote into", runID)
	}
	if rec.Status != StatusDone {
		return "", fmt.Errorf("lab: run %s is %s, not %s", runID, rec.Status, StatusDone)
	}
	js := l.state.Jobs[rec.Job]
	if js == nil {
		js = &jobState{}
		l.state.Jobs[rec.Job] = js
	}
	js.Baseline = runID
	l.persistLocked()
	l.logf("lab: job %s baseline -> %s (manual)", rec.Job, runID)
	return rec.Job, nil
}

// Cancel stops a queued or in-flight run. A queued run leaves the
// queue; an in-flight run's context is canceled and it settles as
// StatusCanceled (its journal is discarded — cancel means "I don't
// want this result").
func (l *Lab) Cancel(runID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.state.Runs[runID]
	if rec == nil {
		return fmt.Errorf("lab: unknown run %q", runID)
	}
	switch {
	case l.running == runID:
		rec.cancelRequested = true
		l.runCancel()
		return nil
	case l.queue.remove(runID):
		rec.Status = StatusCanceled
		rec.Finished = l.now()
		_ = os.Remove(journalPath(l.dir, runID))
		l.met.RunsCanceled++
		l.persistLocked()
		return nil
	default:
		return fmt.Errorf("lab: run %s is %s; only queued or running runs cancel", runID, rec.Status)
	}
}

// Run returns a copy of a run's record.
func (l *Lab) Run(runID string) (RunRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.state.Runs[runID]
	if rec == nil {
		return RunRecord{}, false
	}
	return *rec, true
}

// JobStatus is one job's scheduling snapshot.
type JobStatus struct {
	Baseline string    `json:"baseline,omitempty"`
	NextDue  time.Time `json:"next_due,omitzero"`
}

// QueueSnapshot is what GET /queuez serves.
type QueueSnapshot struct {
	Draining bool   `json:"draining"`
	Running  string `json:"running,omitempty"`
	// Queue lists queued run IDs in execution order.
	Queue []string `json:"queue"`
	// Runs lists all known run IDs, oldest first.
	Runs []string             `json:"runs"`
	Jobs map[string]JobStatus `json:"jobs"`
}

// Queue snapshots the scheduler state.
func (l *Lab) Queue() QueueSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := QueueSnapshot{
		Draining: l.draining,
		Running:  l.running,
		Queue:    l.queue.ids(),
		Runs:     append([]string(nil), l.state.Order...),
		Jobs:     make(map[string]JobStatus, len(l.state.Jobs)),
	}
	if snap.Queue == nil {
		snap.Queue = []string{}
	}
	for name, js := range l.state.Jobs {
		snap.Jobs[name] = JobStatus{Baseline: js.Baseline, NextDue: js.NextDue}
	}
	return snap
}

// MetricsSnapshot is what GET /metricsz serves.
type MetricsSnapshot struct {
	Draining           bool   `json:"draining"`
	QueueDepth         int    `json:"queue_depth"`
	Running            string `json:"running,omitempty"`
	RunsStarted        int    `json:"runs_started"`
	RunsFinished       int    `json:"runs_finished"`
	RunsFailed         int    `json:"runs_failed"`
	RunsCanceled       int    `json:"runs_canceled"`
	RunsInterrupted    int    `json:"runs_interrupted"`
	RunsResumed        int    `json:"runs_resumed"`
	CellsExecuted      int    `json:"cells_executed"`
	CellsRestored      int    `json:"cells_restored"`
	DiffsIdentical     int    `json:"diffs_identical"`
	DiffsWithinEpsilon int    `json:"diffs_within_epsilon"`
	DiffsDrifted       int    `json:"diffs_drifted"`
}

// Metrics snapshots the daemon's counters.
func (l *Lab) Metrics() MetricsSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.met
	m.Draining = l.draining
	m.QueueDepth = l.queue.depth()
	m.Running = l.running
	return m
}

// Drain stops scheduling and checkpoints the in-flight run: its context
// is canceled, it settles as StatusInterrupted with its journal intact,
// and /healthz flips to 503. Runs already queued stay queued (the next
// daemon picks them up). Call Close afterwards.
func (l *Lab) Drain() {
	l.mu.Lock()
	l.draining = true
	cancel := l.runCancel
	l.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	l.kickLoop()
}

// Close stops the scheduler and releases the workspace. An in-flight
// run (if Drain wasn't called first) is interrupted with its journal
// intact. Close is idempotent.
func (l *Lab) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.draining = true
	l.mu.Unlock()
	l.cancel()
	<-l.done

	l.mu.Lock()
	aborted := l.aborted
	if !aborted {
		l.persistLocked()
	}
	l.mu.Unlock()
	err := l.store.Close()
	if rerr := l.lock.Release(); err == nil {
		err = rerr
	}
	return err
}

// Kill simulates SIGKILL delivery for tests: from
// this instant the lab writes nothing more — no state.json update, no
// journal lines — and the in-flight run's context is canceled. The
// workspace is left exactly as a real kill would leave it (state.json
// says "running", the journal holds every completed cell); only the
// process-scoped locks still need releasing, which the mandatory
// follow-up Close does without persisting anything. Kill returns
// immediately so a blocking CellHook can be released afterwards.
func (l *Lab) Kill() {
	l.mu.Lock()
	l.aborted = true
	cancel := l.runCancel
	l.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	l.cancel()
}
