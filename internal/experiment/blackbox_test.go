// Black-box tests for the public experiment API, geobed-style: every
// assertion goes through exported identifiers only — spec construction,
// JSON round-tripping, the runner, its event stream, and the artifact
// store — never through package internals. If these pass, an external
// consumer of the API works.
package experiment_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/experiment"
)

// demoSpec is a small but representative spec: two model backends, a
// regular sweep with options, a vote sweep derived from it, and an
// analysis step.
func demoSpec() experiment.Spec {
	return experiment.Spec{
		Name:        "demo",
		Description: "black-box demo",
		Dataset:     experiment.DatasetSpec{Coordinates: 4, Seed: 9},
		Backends: map[string]backend.Spec{
			"chatgpt": {Kind: "vlm", Model: "chatgpt-4o-mini"},
			"gemini":  {Kind: "vlm", Model: "gemini-1.5-pro"},
		},
		Sweeps: []experiment.SweepSpec{
			{Name: "models", Backends: []string{"chatgpt", "gemini"}, Options: experiment.OptionsSpec{Language: "Spanish", Temperature: 0.5}},
			{Name: "vote", VoteTopOf: "models", VoteTopK: 2},
		},
		Analyses: []experiment.AnalysisSpec{{Name: "tracts", Backend: "gemini", TractFeet: 4000}},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := demoSpec()
	data, err := experiment.MarshalIndentSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := experiment.ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec of marshaled spec: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(spec, parsed) {
		t.Errorf("round trip changed the spec:\nbefore: %+v\nafter:  %+v", spec, parsed)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := experiment.ParseSpec([]byte(`{"name":"x","dataset":{"seed":1},"backends":{},"sweeps":[],"tyop":true}`))
	if err == nil {
		t.Fatal("ParseSpec accepted a spec with an unknown field")
	}
	// A valid spec followed by anything but whitespace is rejected too.
	valid, err := experiment.MarshalIndentSpec(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.ParseSpec(valid); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, trailing := range []string{`}`, `]`, `{}`, `x`} {
		if _, err := experiment.ParseSpec(append(append([]byte(nil), valid...), trailing...)); err == nil {
			t.Errorf("ParseSpec accepted trailing data %q", trailing)
		}
	}
}

func TestValidateRejectsUnknownBackendName(t *testing.T) {
	spec := demoSpec()
	spec.Sweeps[0].Backends = []string{"chatgpt", "no-such-backend"}
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a sweep referencing an undeclared backend")
	}
	if !strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("error does not name the unknown backend: %v", err)
	}
}

func TestValidateRejectsUnknownBackendKind(t *testing.T) {
	spec := demoSpec()
	spec.Backends["weird"] = backend.Spec{Kind: "quantum"}
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted an unregistered backend kind")
	}
	if !strings.Contains(err.Error(), "quantum") {
		t.Errorf("error does not name the unknown kind: %v", err)
	}
}

// TestRetiredCommitteeVocabularyRejected: the committee is a voting
// spec, so a spec still written with the retired "committee" kind fails
// validation naming it, and one with the retired "models" field fails
// to decode.
func TestRetiredCommitteeVocabularyRejected(t *testing.T) {
	const retired = "committee"
	spec := demoSpec()
	spec.Backends[retired] = backend.Spec{Kind: retired}
	want := fmt.Sprintf(`experiment: backend "committee" has unknown kind "committee" (registered: %v)`, backend.Kinds())
	if err := spec.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %q", err, want)
	}
	const models = `{"name":"x","backends":{"c":{"kind":"voting","models":["grok-2"]}},"sweeps":[{"name":"s","backends":["c"]}]}`
	want = `experiment: parse spec: json: unknown field "models"`
	if _, err := experiment.ParseSpec([]byte(models)); err == nil || err.Error() != want {
		t.Errorf("ParseSpec = %v, want %q", err, want)
	}
}

// TestValidateRejectsSamplingOutOfRange: a sweep's temperature and
// top-p are held to the models' ranges before any corpus is built, NaN
// and the infinities included; zero means the default.
func TestValidateRejectsSamplingOutOfRange(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		temperature, topP float64
		want              string
	}{
		{5, 0, `experiment: sweep "models": temperature 5.000000 outside [0,2]`},
		{-1, 0, `experiment: sweep "models": temperature -1.000000 outside [0,2]`},
		{nan, 0, `experiment: sweep "models": temperature NaN outside [0,2]`},
		{inf, 0, `experiment: sweep "models": temperature +Inf outside [0,2]`},
		{0, 1.01, `experiment: sweep "models": top-p 1.010000 outside (0,1]`},
		{0, -0.5, `experiment: sweep "models": top-p -0.500000 outside (0,1]`},
		{0, nan, `experiment: sweep "models": top-p NaN outside (0,1]`},
		{0, -inf, `experiment: sweep "models": top-p -Inf outside (0,1]`},
		{0, 0, ""},
		{2, 1, ""},
	} {
		spec := demoSpec()
		spec.Sweeps[0].Options.Temperature = tc.temperature
		spec.Sweeps[0].Options.TopP = tc.topP
		got := ""
		if err := spec.Validate(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("temperature %v, top-p %v: Validate error %q, want %q", tc.temperature, tc.topP, got, tc.want)
		}
	}
}

func TestValidateRejectsVoteOfVoteSweep(t *testing.T) {
	spec := demoSpec()
	spec.Sweeps = append(spec.Sweeps, experiment.SweepSpec{Name: "vote2", VoteTopOf: "vote", VoteTopK: 1})
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a vote sweep over another vote sweep")
	}
	if !strings.Contains(err.Error(), "vote2") {
		t.Errorf("error does not name the offending sweep: %v", err)
	}
}

func TestValidateRejectsVoteOfLaterSweep(t *testing.T) {
	spec := demoSpec()
	spec.Sweeps[0], spec.Sweeps[1] = spec.Sweeps[1], spec.Sweeps[0]
	if spec.Validate() == nil {
		t.Fatal("Validate accepted a vote sweep referencing a later sweep")
	}
}

// TestValidateRejectsDuplicateBackendInSweep: a backend listed twice in
// one sweep would seat the same model several times in a top-k vote and
// share one checkpoint cell ID, so validation must refuse it.
func TestValidateRejectsDuplicateBackendInSweep(t *testing.T) {
	spec, err := experiment.Builtin("f5", experiment.BuiltinConfig{Coordinates: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sw := &spec.Sweeps[0]
	if sw.Name != "f5:models" {
		t.Fatalf("first f5 sweep = %q, want f5:models", sw.Name)
	}
	sw.Backends = append(sw.Backends, "grok-2", "grok-2")
	err = spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a sweep listing one backend twice")
	}
	if want := `experiment: sweep "f5:models" lists backend "grok-2" twice`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestEventOrdering pins the runner's event contract: sweeps in spec
// order, reports in backend order, analyses after sweeps — the same
// deterministic stream every run, despite the concurrency underneath.
func TestEventOrdering(t *testing.T) {
	var got []string
	res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), demoSpec(), func(ev experiment.Event) {
		s := string(ev.Kind)
		if ev.Step != "" {
			s += " " + ev.Step
		}
		if ev.Backend != "" {
			s += " " + ev.Backend
		}
		got = append(got, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"run_started",
		"sweep_started models",
		"report_ready models chatgpt",
		"report_ready models gemini",
		"sweep_finished models",
		"sweep_started vote",
		"report_ready vote vote",
		"sweep_finished vote",
		"analysis_started tracts",
		"analysis_finished tracts",
		"run_finished",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event stream:\ngot  %q\nwant %q", got, want)
	}
	// The result mirrors the stream: reports in backend order, members
	// ranked, analysis present.
	if res.Sweep("models").Reports[0].Backend != "chatgpt" || res.Sweep("models").Reports[1].Backend != "gemini" {
		t.Errorf("sweep reports out of backend order: %+v", res.Sweep("models").Reports)
	}
	if n := len(res.Sweep("vote").Reports[0].Members); n != 2 {
		t.Errorf("vote sweep has %d members, want 2", n)
	}
	if res.Analysis("tracts").Result == nil {
		t.Error("analysis result missing")
	}
}

// TestCancellationMidSweep cancels the run from its own event stream —
// as any consumer could — and asserts the runner stops with the
// context's error and closes the stream with RunFailed.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last experiment.Event
	_, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(ctx, demoSpec(), func(ev experiment.Event) {
		last = ev
		if ev.Kind == experiment.SweepStarted {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error is not context.Canceled: %v", err)
	}
	if last.Kind != experiment.RunFailed {
		t.Errorf("stream did not close with RunFailed, last event %q", last.Kind)
	}
	if last.Err == nil {
		t.Error("RunFailed event carries no error")
	}
}

// TestStoreRoundTrip saves a run and checks the artifact layout: a
// manifest plus a deterministic report file per sweep, re-savable to
// identical bytes.
func TestStoreRoundTrip(t *testing.T) {
	spec := demoSpec()
	spec.Analyses = nil
	res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := experiment.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := store.Save("", res)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"manifest.json", "sweep-models.json", "sweep-vote.json"} {
		if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
			t.Errorf("missing artifact %s: %v", file, err)
		}
	}
	first, err := os.ReadFile(filepath.Join(dir, "sweep-models.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save("", res); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "sweep-models.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("re-saving the same run changed the report bytes")
	}
}
