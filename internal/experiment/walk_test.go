package experiment_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"nbhd/internal/experiment"
	"nbhd/internal/llmserve"
)

// requestLog records every chat request an in-process llmserve answers,
// keyed by everything that determines the answer — model, prompt text,
// sampling settings and image bytes — with the step the runner's event
// stream was in when the request arrived.
type requestLog struct {
	mu    sync.Mutex
	step  string
	steps map[string][]string // request key → steps it arrived in
}

func (l *requestLog) sink(ev experiment.Event) {
	if ev.Kind == experiment.SweepStarted || ev.Kind == experiment.AnalysisStarted {
		l.mu.Lock()
		l.step = ev.Step
		l.mu.Unlock()
	}
}

func (l *requestLog) wrap(t *testing.T, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/chat/completions" {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		var req llmserve.ChatRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Error(err)
		}
		key := sha256.New()
		fmt.Fprintf(key, "%s|%v|%v", req.Model, req.Temperature, req.TopP)
		for _, m := range req.Messages {
			for _, part := range m.Content {
				fmt.Fprintf(key, "|%s|%s|%s|%dx%d", part.Type, part.Text, part.ImagePNGBase64+part.ImageF32Base64, part.Width, part.Height)
			}
		}
		l.mu.Lock()
		k := fmt.Sprintf("%s %x", req.Model, key.Sum(nil))
		l.steps[k] = append(l.steps[k], l.step)
		l.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
	})
}

// countingRun runs spec with its model backends served by an
// in-process llmserve and returns the request log and the result.
func countingRun(t *testing.T, spec experiment.Spec, cp *experiment.Checkpoint) (map[string][]string, *experiment.Result) {
	t.Helper()
	srv, err := llmserve.NewBuiltin(llmserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	log := &requestLog{steps: map[string][]string{}}
	ts := httptest.NewServer(log.wrap(t, srv.Handler()))
	defer ts.Close()
	for name, b := range spec.Backends {
		b.BaseURL = ts.URL
		spec.Backends[name] = b
	}
	res, err := experiment.NewRunner(experiment.RunnerConfig{Checkpoint: cp}).Run(context.Background(), spec, log.sink)
	if err != nil {
		t.Fatal(err)
	}
	return log.steps, res
}

// f4Vote is the builtin f4 spec over http backends plus two top-two
// votes over its parallel sweep: one under that sweep's options
// (mode "parallel"), one with the options left empty, which send the
// same requests.
func f4Vote(t *testing.T) experiment.Spec {
	t.Helper()
	spec, err := experiment.Builtin("f4", experiment.BuiltinConfig{Coordinates: 2, Seed: 3, BaseURL: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sweeps[0].Options.Mode != "parallel" {
		t.Fatalf("f4:parallel options %+v, want mode spelled out", spec.Sweeps[0].Options)
	}
	spec.Sweeps = append(spec.Sweeps,
		experiment.SweepSpec{Name: "vote", VoteTopOf: "f4:parallel", VoteTopK: 2, Options: spec.Sweeps[0].Options},
		experiment.SweepSpec{Name: "vote:default", VoteTopOf: "f4:parallel", VoteTopK: 2})
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunnerAsksEachFrameOncePerCell: a fresh f4 run with two votes
// asks every (backend, options) cell about each frame exactly once, all
// in one walk that starts at the first sweep; neither vote asks
// anything, the one with empty options included, since its options
// resolve to the parallel sweep's. A resume with one source cell
// restored asks that member again in a second walk, at the first vote,
// and nothing else twice.
func TestRunnerAsksEachFrameOncePerCell(t *testing.T) {
	spec := f4Vote(t)
	fresh, full := countingRun(t, spec, nil)
	for key, steps := range fresh {
		if len(steps) != 1 || steps[0] != "f4:parallel" {
			t.Errorf("fresh run: request %s arrived in steps %q, want once in f4:parallel", key[:20], steps)
		}
	}

	// The requests of gemini's parallel cell alone.
	alone := spec
	alone.Sweeps = []experiment.SweepSpec{{Name: "alone", Backends: []string{"gemini-1.5-pro"}, Options: spec.Sweeps[0].Options}}
	cell, _ := countingRun(t, alone, nil)
	if len(cell) == 0 {
		t.Fatal("gemini's parallel cell made no requests")
	}

	rep := roundTrip(t, *full.Sweep("f4:parallel").Report("gemini-1.5-pro"))
	cp := &experiment.Checkpoint{Reports: map[string]experiment.CellReport{
		experiment.SweepCellID("f4:parallel", "gemini-1.5-pro"): {Report: &rep},
	}}
	resumed, res := countingRun(t, spec, cp)
	if len(resumed) != len(fresh) {
		t.Errorf("resumed run made %d distinct requests, want the fresh run's %d", len(resumed), len(fresh))
	}
	for key, steps := range resumed {
		want := "f4:parallel"
		if _, ok := cell[key]; ok {
			want = "vote"
		}
		if len(steps) != 1 || steps[0] != want {
			t.Errorf("resumed run: request %s arrived in steps %q, want once in %s", key[:20], steps, want)
		}
		if _, ok := fresh[key]; !ok {
			t.Errorf("resumed run: request %s is not one the fresh run made", key[:20])
		}
	}
	for _, name := range []string{"f4:parallel", "f4:sequential", "vote", "vote:default"} {
		if a, b := encodeSweep(t, full.Sweep(name)), encodeSweep(t, res.Sweep(name)); !bytes.Equal(a, b) {
			t.Errorf("resumed sweep %s differs from the fresh run's", name)
		}
	}
}

func encodeSweep(t *testing.T, sw *experiment.SweepResult) []byte {
	t.Helper()
	b, err := experiment.EncodeSweepReports(*sw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
