package experiment_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/experiment"
	"nbhd/internal/prompt"
)

// countingKind is a test backend kind: a builtin simulated model (the
// spec's Model) that counts the items it classifies under the spec's
// Name.
const countingKind = "counting-vlm-test"

var classified sync.Map // spec Name → *atomic.Int64

func init() {
	backend.Register(countingKind, func(ctx context.Context, s backend.Spec, env backend.Env) (backend.Backend, error) {
		b, err := backend.OpenWith(ctx, backend.Spec{Kind: "vlm", Model: s.Model}, env)
		if err != nil {
			return nil, err
		}
		n, _ := classified.LoadOrStore(s.Name, new(atomic.Int64))
		return &countingBackend{Backend: b, items: n.(*atomic.Int64)}, nil
	})
}

type countingBackend struct {
	backend.Backend
	items *atomic.Int64
}

func (c *countingBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	c.items.Add(int64(len(req.Items)))
	return c.Backend.Classify(ctx, req)
}

// voteSpec has three counting models in a regular sweep under the
// given options and a top-two vote over them under voteOpts. Counter
// names carry the test name, so tests never share a counter.
func voteSpec(t *testing.T, opts, voteOpts experiment.OptionsSpec) experiment.Spec {
	models := map[string]string{"chatgpt": "chatgpt-4o-mini", "gemini": "gemini-1.5-pro", "grok": "grok-2"}
	backends := make(map[string]backend.Spec, len(models))
	for name, model := range models {
		backends[name] = backend.Spec{Kind: countingKind, Model: model, Name: t.Name() + "/" + name}
	}
	return experiment.Spec{
		Name:     "vote-reuse",
		Dataset:  experiment.DatasetSpec{Coordinates: 4, Seed: 9},
		Backends: backends,
		Sweeps: []experiment.SweepSpec{
			{Name: "models", Backends: []string{"chatgpt", "gemini", "grok"}, Options: opts},
			{Name: "vote", VoteTopOf: "models", VoteTopK: 2, Options: voteOpts},
		},
	}
}

// itemCounts reads every backend's classified-item counter.
func itemCounts(spec experiment.Spec) map[string]int64 {
	out := map[string]int64{}
	for name, s := range spec.Backends {
		if n, ok := classified.Load(s.Name); ok {
			out[name] = n.(*atomic.Int64).Load()
		} else {
			out[name] = 0
		}
	}
	return out
}

// runCountingVote runs the spec and returns the result plus how many
// items each backend classified during the vote sweep alone.
func runCountingVote(t *testing.T, spec experiment.Spec, cp *experiment.Checkpoint) (*experiment.Result, map[string]int64) {
	t.Helper()
	var before, after map[string]int64
	res, err := experiment.NewRunner(experiment.RunnerConfig{Checkpoint: cp}).Run(context.Background(), spec, func(ev experiment.Event) {
		if ev.Step != "vote" {
			return
		}
		switch ev.Kind {
		case experiment.SweepStarted:
			before = itemCounts(spec)
		case experiment.SweepFinished:
			after = itemCounts(spec)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	during := map[string]int64{}
	for name := range spec.Backends {
		during[name] = after[name] - before[name]
	}
	return res, during
}

// votingReport evaluates the vote sweep's committee the way the runner
// did before it voted recorded answers: one backend.NewVoting over
// freshly opened members, swept by EvaluateBackend under opts.
func votingReport(t *testing.T, spec experiment.Spec, members []string, opts core.LLMOptions) []byte {
	t.Helper()
	ctx := context.Background()
	pipe, err := core.NewPipeline(core.Config{Coordinates: spec.Dataset.Coordinates, Seed: spec.Dataset.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	bs := make([]backend.Backend, len(members))
	for i, name := range members {
		s := spec.Backends[name]
		if bs[i], err = backend.OpenWith(ctx, backend.Spec{Kind: "vlm", Model: s.Model}, pipe.BackendEnv()); err != nil {
			t.Fatal(err)
		}
	}
	voting, err := backend.NewVoting("vote", bs...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipe.NewEvaluator(core.EvalConfig{}).EvaluateBackend(ctx, voting, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, rep)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkVote asserts the vote sweep's report equals a NewVoting
// committee's over the same members, byte for byte, and that exactly
// the backends in swept classified during the vote sweep, each over
// every frame once.
func checkVote(t *testing.T, spec experiment.Spec, res *experiment.Result, during map[string]int64, opts core.LLMOptions, swept ...string) {
	t.Helper()
	vote := res.Sweep("vote").Reports[0]
	if len(vote.Members) != 2 {
		t.Fatalf("vote members %q, want the top two", vote.Members)
	}
	if got, want := mustJSON(t, vote.Report), votingReport(t, spec, vote.Members, opts); !bytes.Equal(got, want) {
		t.Errorf("vote report differs from NewVoting's:\ngot:  %s\nwant: %s", got, want)
	}
	frames := int64(spec.Dataset.Coordinates * core.FramesPerCoordinate)
	want := map[string]int64{}
	for _, name := range swept {
		want[name] = frames
	}
	for name := range spec.Backends {
		if during[name] != want[name] {
			t.Errorf("%s classified %d items during the vote sweep, want %d (swept: %q, members %q)", name, during[name], want[name], swept, vote.Members)
		}
	}
}

// TestVoteReusesDrawnAnswers: under the source sweep's options the vote
// asks no member anything.
func TestVoteReusesDrawnAnswers(t *testing.T) {
	opts := experiment.OptionsSpec{Language: "Spanish", Temperature: 0.5}
	spec := voteSpec(t, opts, opts)
	res, during := runCountingVote(t, spec, nil)
	checkVote(t, spec, res, during, core.LLMOptions{Language: prompt.Spanish, Temperature: 0.5})
}

// TestVoteReusesAnswersUnderSpelledOutCondition: a vote that names the
// condition its source sweep inherited (clean on a clean corpus, the
// corpus's own condition on a degraded one) runs on the same frames, so
// it asks no member anything and reports what a committee would.
func TestVoteReusesAnswersUnderSpelledOutCondition(t *testing.T) {
	for _, corpus := range []string{"", "night"} {
		t.Run("corpus="+corpus, func(t *testing.T) {
			voteCond := corpus
			if voteCond == "" {
				voteCond = "clean"
			}
			spec := voteSpec(t, experiment.OptionsSpec{}, experiment.OptionsSpec{Condition: voteCond})
			spec.Dataset.Condition = corpus
			res, during := runCountingVote(t, spec, nil)
			checkVote(t, spec, res, during, core.LLMOptions{Condition: voteCond})
		})
	}
}

// TestVoteResweepsUnderOwnOptions: a vote under other options than its
// source sweep's sweeps each member once under its own.
func TestVoteResweepsUnderOwnOptions(t *testing.T) {
	spec := voteSpec(t, experiment.OptionsSpec{Language: "Spanish", Temperature: 0.5}, experiment.OptionsSpec{TopP: 0.5})
	res, during := runCountingVote(t, spec, nil)
	members := res.Sweep("vote").Reports[0].Members
	checkVote(t, spec, res, during, core.LLMOptions{TopP: 0.5}, members...)
}

// TestVoteResweepsRestoredSource: members whose source cells were
// restored from a checkpoint have no drawn answers, so the vote sweeps
// them once; a member the resumed run evaluated afresh is reused.
func TestVoteResweepsRestoredSource(t *testing.T) {
	opts := experiment.OptionsSpec{Mode: "sequential"}
	spec := voteSpec(t, opts, opts)
	full, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := full.Sweep("vote").Reports[0].Members
	sweepOpts := core.LLMOptions{Mode: prompt.Sequential}

	restoreAll := &experiment.Checkpoint{Reports: map[string]experiment.CellReport{}}
	for _, br := range full.Sweep("models").Reports {
		rep := roundTrip(t, *br.Report)
		restoreAll.Reports[experiment.SweepCellID("models", br.Backend)] = experiment.CellReport{Report: &rep}
	}
	res, during := runCountingVote(t, spec, restoreAll)
	checkVote(t, spec, res, during, sweepOpts, members...)

	restoreOne := &experiment.Checkpoint{Reports: map[string]experiment.CellReport{
		experiment.SweepCellID("models", members[0]): restoreAll.Reports[experiment.SweepCellID("models", members[0])],
	}}
	res, during = runCountingVote(t, spec, restoreOne)
	checkVote(t, spec, res, during, sweepOpts, members[0])
}

// TestCancellationBetweenSteps cancels right after the source sweep: the
// vote over drawn answers makes no evaluator call that could notice, so
// the runner itself must stop before the next step.
func TestCancellationBetweenSteps(t *testing.T) {
	opts := experiment.OptionsSpec{Temperature: 0.7}
	spec := voteSpec(t, opts, opts)
	spec.Analyses = []experiment.AnalysisSpec{{Name: "tracts", Backend: "gemini"}}
	for _, after := range []string{"models", "vote"} {
		t.Run("after "+after, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var events []experiment.Event
			_, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(ctx, spec, func(ev experiment.Event) {
				events = append(events, ev)
				if ev.Kind == experiment.SweepFinished && ev.Step == after {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run error %v, want context.Canceled", err)
			}
			last := events[len(events)-1]
			if last.Kind != experiment.RunFailed || !errors.Is(last.Err, context.Canceled) {
				t.Errorf("stream closed with %q (%v), want RunFailed with the cancellation", last.Kind, last.Err)
			}
			if prev := events[len(events)-2]; prev.Kind != experiment.SweepFinished || prev.Step != after {
				t.Errorf("a step ran after the cancellation: %q %q", prev.Kind, prev.Step)
			}
		})
	}
}
