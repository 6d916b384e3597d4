// Black-box tests for the lab daemon, geobed-style: the daemon is
// driven through its public surface — the HTTP control plane for every
// command and observation, plus the process-lifecycle calls an operator
// has (Open, Drain, Close, and Kill as the test stand-in for SIGKILL).
// No test reaches into scheduler internals; run artifacts are checked
// with the exported experiment.DiffRuns, the same way the daemon itself
// checks baselines.
package lab_test

import (
	"bytes"
	"encoding/json"

	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/experiment"
	"nbhd/internal/lab"
)

// demoSpec mirrors the experiment package's demo: two simulated model
// backends, a models sweep, their vote, and an analysis step — four
// cells, enough to interrupt between.
func demoSpec() experiment.Spec {
	return experiment.Spec{
		Name:    "demo",
		Dataset: experiment.DatasetSpec{Coordinates: 4, Seed: 9},
		Backends: map[string]backend.Spec{
			"chatgpt": {Kind: "vlm", Model: "chatgpt-4o-mini"},
			"gemini":  {Kind: "vlm", Model: "gemini-1.5-pro"},
		},
		Sweeps: []experiment.SweepSpec{
			{Name: "models", Backends: []string{"chatgpt", "gemini"}},
			{Name: "vote", VoteTopOf: "models", VoteTopK: 2},
		},
		Analyses: []experiment.AnalysisSpec{{Name: "tracts", Backend: "gemini", TractFeet: 4000}},
	}
}

// writeSpecFile persists demoSpec as a spec file and returns its path.
func writeSpecFile(t *testing.T) string {
	t.Helper()
	data, err := experiment.MarshalIndentSpec(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func demoConfig(t *testing.T) lab.Config {
	t.Helper()
	return lab.Config{Jobs: []lab.JobConfig{{Name: "demo", Spec: writeSpecFile(t)}}}
}

// client wraps the HTTP surface.
type client struct {
	t    *testing.T
	base string
}

func newClient(t *testing.T, l *lab.Lab) *client {
	t.Helper()
	srv := httptest.NewServer(l.Handler())
	t.Cleanup(srv.Close)
	return &client{t: t, base: srv.URL}
}

func (c *client) post(path string, body any) (*http.Response, []byte) {
	c.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func (c *client) get(path string) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// enqueueJob enqueues a job run and returns the run ID.
func (c *client) enqueueJob(job string) string {
	c.t.Helper()
	resp, body := c.post("/v1/enqueue", map[string]string{"job": job})
	if resp.StatusCode != http.StatusAccepted {
		c.t.Fatalf("enqueue %q: status %d: %s", job, resp.StatusCode, body)
	}
	var out struct {
		Run string `json:"run"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Run == "" {
		c.t.Fatalf("enqueue response %s: %v", body, err)
	}
	return out.Run
}

// runRecord fetches GET /runz/{id}.
func (c *client) runRecord(runID string) lab.RunRecord {
	c.t.Helper()
	resp, body := c.get("/runz/" + runID)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("runz/%s: status %d: %s", runID, resp.StatusCode, body)
	}
	var rec lab.RunRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		c.t.Fatalf("runz/%s: %v: %s", runID, err, body)
	}
	return rec
}

// waitStatus polls the run until it reaches the wanted status.
func (c *client) waitStatus(runID, want string) lab.RunRecord {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := c.runRecord(runID)
		if rec.Status == want {
			return rec
		}
		switch rec.Status {
		case lab.StatusFailed, lab.StatusCanceled:
			if rec.Status != want {
				c.t.Fatalf("run %s reached %s (error %q), want %s", runID, rec.Status, rec.Error, want)
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("run %s stuck in %s, want %s", runID, rec.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertErrorBody checks the llmserve error shape: message, type, and a
// request ID.
func assertErrorBody(t *testing.T, body []byte, wantType string) {
	t.Helper()
	var er struct {
		Error struct {
			Message   string `json:"message"`
			Type      string `json:"type"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not llmserve-shaped: %v: %s", err, body)
	}
	if er.Error.Message == "" || er.Error.RequestID == "" {
		t.Errorf("error body missing message or request_id: %s", body)
	}
	if wantType != "" && er.Error.Type != wantType {
		t.Errorf("error type %q, want %q: %s", er.Error.Type, wantType, body)
	}
}

// TestEnqueueRejectsBadRequests covers the malformed-input contract:
// every rejection is an llmserve-shaped error body.
func TestEnqueueRejectsBadRequests(t *testing.T) {
	l, err := lab.Open(t.TempDir(), lab.Config{Jobs: []lab.JobConfig{{Name: "demo", Spec: "smoke"}}}, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(t, l)

	resp, body := c.post("/v1/enqueue", map[string]any{"job": "no-such-job"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "unknown_job")

	// A spec with an unknown field is rejected before it ever queues.
	resp, body = c.post("/v1/enqueue", map[string]any{"spec": map[string]any{"name": "x", "tyop": true}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field spec: status %d, want 400: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "invalid_request_error")

	// A well-formed spec naming an unregistered backend kind fails
	// validation.
	resp, body = c.post("/v1/enqueue", map[string]any{"spec": map[string]any{
		"name":     "x",
		"dataset":  map[string]any{"coordinates": 4, "seed": 1},
		"backends": map[string]any{"q": map[string]any{"kind": "quantum"}},
		"sweeps":   []any{map[string]any{"name": "s", "backends": []string{"q"}}},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: status %d, want 400: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "invalid_request_error")

	resp, body = c.post("/v1/enqueue", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "")

	// A body over the 1 MiB control-plane limit is a 413, not a
	// truncated-JSON 400.
	resp, body = c.post("/v1/enqueue", map[string]any{"job": "demo", "pad": strings.Repeat("x", 1<<20)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("body over the limit: status %d, want 413: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "invalid_request_error")

	resp, body = c.get("/runz/nope-000001")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "unknown_run")
}

// TestRunLifecycleAndBaseline runs a job twice: the first run
// auto-promotes to baseline, the second diffs byte-identical against it
// and advances the baseline.
func TestRunLifecycleAndBaseline(t *testing.T) {
	l, err := lab.Open(t.TempDir(), demoConfig(t), lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(t, l)

	run1 := c.enqueueJob("demo")
	rec1 := c.waitStatus(run1, lab.StatusDone)
	if rec1.Cells != 4 || rec1.CellsRestored != 0 {
		t.Errorf("run1 cells=%d restored=%d, want 4/0", rec1.Cells, rec1.CellsRestored)
	}

	resp, body := c.get("/queuez")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queuez: %d", resp.StatusCode)
	}
	var q lab.QueueSnapshot
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Jobs["demo"].Baseline != run1 {
		t.Errorf("baseline %q after first run, want %q (auto-promote)", q.Jobs["demo"].Baseline, run1)
	}

	run2 := c.enqueueJob("demo")
	rec2 := c.waitStatus(run2, lab.StatusDone)
	if rec2.Diff == nil {
		t.Fatal("second run has no baseline diff")
	}
	if rec2.Diff.Against != run1 || !rec2.Diff.Identical || !rec2.Diff.Clean {
		t.Errorf("second run diff %+v, want identical against %s", rec2.Diff, run1)
	}
	_, body = c.get("/queuez")
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Jobs["demo"].Baseline != run2 {
		t.Errorf("baseline %q after identical run, want %q", q.Jobs["demo"].Baseline, run2)
	}

	var m lab.MetricsSnapshot
	_, body = c.get("/metricsz")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.DiffsIdentical < 1 || m.RunsFinished != 2 || m.CellsExecuted < 8 {
		t.Errorf("metrics %+v: want >=1 identical diff, 2 finished runs, >=8 cells", m)
	}
}

// freezer is a CellHook that blocks the first run at its first cell
// until released, and stays out of the way afterwards.
type freezer struct {
	once    sync.Once
	ready   chan string
	release chan struct{}
}

func newFreezer() *freezer {
	return &freezer{ready: make(chan string, 1), release: make(chan struct{})}
}

func (f *freezer) hook(runID, cell string) {
	f.once.Do(func() {
		f.ready <- runID
		<-f.release
	})
}

// TestCancelMidRunLeavesDaemonHealthy cancels an in-flight run through
// the API and checks the daemon keeps serving and running new work.
func TestCancelMidRunLeavesDaemonHealthy(t *testing.T) {
	fz := newFreezer()
	l, err := lab.Open(t.TempDir(), demoConfig(t), lab.Options{CellHook: fz.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(t, l)

	run1 := c.enqueueJob("demo")
	frozen := <-fz.ready
	if frozen != run1 {
		t.Fatalf("frozen run %s, want %s", frozen, run1)
	}
	resp, body := c.post("/v1/cancel", map[string]string{"run": run1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", resp.StatusCode, body)
	}
	close(fz.release)
	rec := c.waitStatus(run1, lab.StatusCanceled)
	if rec.Status != lab.StatusCanceled {
		t.Fatalf("run %s status %s", run1, rec.Status)
	}

	// The daemon stays healthy and keeps executing.
	resp, _ = c.get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after cancel: %d, want 200", resp.StatusCode)
	}
	run2 := c.enqueueJob("demo")
	c.waitStatus(run2, lab.StatusDone)

	// Canceling a finished run is a conflict, not a crash.
	resp, body = c.post("/v1/cancel", map[string]string{"run": run2})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel done run: status %d, want 409: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "invalid_state")
}

// TestKillResumeByteIdentical is the crash-recovery proof at the daemon
// level: a run killed after its first cell resumes on reopen, re-runs
// only the missing cells, and its artifacts byte-match an uninterrupted
// run's.
func TestKillResumeByteIdentical(t *testing.T) {
	specFile := writeSpecFile(t)
	cfg := lab.Config{Jobs: []lab.JobConfig{{Name: "demo", Spec: specFile}}}

	// Reference: an uninterrupted run in its own workspace.
	wsA := t.TempDir()
	la, err := lab.Open(wsA, cfg, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ca := newClient(t, la)
	runA := ca.enqueueJob("demo")
	recA := ca.waitStatus(runA, lab.StatusDone)
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}

	// Victim: same job, killed at the first cell boundary.
	wsB := t.TempDir()
	fz := newFreezer()
	lb, err := lab.Open(wsB, cfg, lab.Options{CellHook: fz.hook})
	if err != nil {
		t.Fatal(err)
	}
	cb := newClient(t, lb)
	runB := cb.enqueueJob("demo")
	<-fz.ready
	lb.Kill()
	close(fz.release)
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the interrupted run is recovered and resumed.
	lb2, err := lab.Open(wsB, cfg, lab.Options{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer lb2.Close()
	cb2 := newClient(t, lb2)
	recB := cb2.waitStatus(runB, lab.StatusDone)
	if recB.CellsRestored < 1 {
		t.Errorf("resumed run restored %d cells, want >= 1", recB.CellsRestored)
	}
	if recB.Cells+recB.CellsRestored != recA.Cells {
		t.Errorf("resumed run executed %d + restored %d cells, want total %d", recB.Cells, recB.CellsRestored, recA.Cells)
	}
	if recB.Cells >= recA.Cells {
		t.Errorf("resume re-ran all %d cells; journal restored nothing", recB.Cells)
	}

	var m lab.MetricsSnapshot
	_, body := cb2.get("/metricsz")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunsResumed < 1 || m.CellsRestored < 1 {
		t.Errorf("metrics %+v: want resumed run and restored cells", m)
	}

	diff, err := experiment.DiffRuns(filepath.Join(wsA, recA.Dir), filepath.Join(wsB, recB.Dir))
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Identical {
		t.Errorf("kill-resume artifacts differ from uninterrupted run: %+v", diff.Files)
	}
}

// TestDrainCheckpointsInFlight covers SIGTERM semantics: the in-flight
// run settles interrupted with its journal intact, the control plane
// keeps answering 200 while /healthz flips 503, new enqueues shed with
// 503 + Retry-After, and the next daemon resumes the run.
func TestDrainCheckpointsInFlight(t *testing.T) {
	ws := t.TempDir()
	cfg := demoConfig(t)
	fz := newFreezer()
	l, err := lab.Open(ws, cfg, lab.Options{CellHook: fz.hook})
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, l)

	run1 := c.enqueueJob("demo")
	<-fz.ready
	l.Drain()
	close(fz.release)
	rec := c.waitStatus(run1, lab.StatusInterrupted)
	if rec.Cells < 1 {
		t.Errorf("interrupted run journaled %d cells, want >= 1", rec.Cells)
	}

	// The control plane still answers while draining...
	resp, _ := c.get("/queuez")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("queuez while draining: %d, want 200", resp.StatusCode)
	}
	// ...health flips so load balancers stop routing...
	resp, _ = c.get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	// ...and new work sheds with the Retry-After contract.
	resp, body := c.post("/v1/enqueue", map[string]string{"job": "demo"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("enqueue while draining: %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed enqueue has no Retry-After header")
	}
	assertErrorBody(t, body, "overloaded")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := lab.Open(ws, cfg, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c2 := newClient(t, l2)
	rec2 := c2.waitStatus(run1, lab.StatusDone)
	if rec2.CellsRestored < 1 {
		t.Errorf("drained run resumed with %d restored cells, want >= 1", rec2.CellsRestored)
	}
}

// TestIntervalJobRunsAtStartup checks the interval trigger: the first
// tick is due at daemon start, so an interval job runs without any
// enqueue.
func TestIntervalJobRunsAtStartup(t *testing.T) {
	cfg := lab.Config{Jobs: []lab.JobConfig{{Name: "demo", Spec: writeSpecFile(t), IntervalSeconds: 3600}}}
	l, err := lab.Open(t.TempDir(), cfg, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(t, l)

	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := c.get("/queuez")
		var q lab.QueueSnapshot
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		if len(q.Runs) > 0 {
			rec := c.waitStatus(q.Runs[0], lab.StatusDone)
			if rec.Job != "demo" {
				t.Errorf("startup run belongs to %q, want demo", rec.Job)
			}
			if nd := q.Jobs["demo"].NextDue; !nd.IsZero() && time.Until(nd) <= 0 {
				t.Errorf("next_due %v not advanced past now", nd)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interval job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkspaceLockExcludesSecondDaemon pins single-ownership.
func TestWorkspaceLockExcludesSecondDaemon(t *testing.T) {
	ws := t.TempDir()
	cfg := lab.Config{}
	l, err := lab.Open(ws, cfg, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Open(ws, cfg, lab.Options{}); err == nil {
		t.Fatal("second daemon acquired a locked workspace")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := lab.Open(ws, cfg, lab.Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdhocSpecRun drives a one-shot inline-spec run end to end.
func TestAdhocSpecRun(t *testing.T) {
	l, err := lab.Open(t.TempDir(), lab.Config{}, lab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(t, l)

	doc, err := experiment.MarshalIndentSpec(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := c.post("/v1/enqueue", map[string]any{"spec": json.RawMessage(doc)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ad-hoc enqueue: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Run string `json:"run"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	rec := c.waitStatus(out.Run, lab.StatusDone)
	if rec.Job != "" || rec.Cells != 4 {
		t.Errorf("ad-hoc run record %+v: want no job, 4 cells", rec)
	}
	// Promoting an ad-hoc run is a conflict: there is no job to promote
	// into.
	resp, body = c.post("/v1/promote", map[string]string{"run": out.Run})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("promote ad-hoc: %d, want 409: %s", resp.StatusCode, body)
	}
	assertErrorBody(t, body, "invalid_state")
}
