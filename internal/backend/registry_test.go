package backend_test

import (
	"context"
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/vlm"
)

func TestOpenUnknownKindListsRegistered(t *testing.T) {
	_, err := backend.Open(context.Background(), backend.Spec{Kind: "nope"})
	if err == nil {
		t.Fatal("Open accepted an unknown kind")
	}
	for _, kind := range []string{"nope", "vlm", "http", "yolo", "cnn", "voting"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not mention %q", err, kind)
		}
	}
}

func TestOpenVLMSpec(t *testing.T) {
	b, err := backend.Open(context.Background(), backend.Spec{Kind: "vlm", Model: string(vlm.Gemini15Pro)})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Name(); got != "vlm:gemini-1.5-pro" {
		t.Errorf("opened backend named %q", got)
	}
	if !b.Capabilities().PerceivedFeatures {
		t.Error("vlm backend should consume the perception cache")
	}
}

func TestOpenVLMSpecUnknownModel(t *testing.T) {
	if _, err := backend.Open(context.Background(), backend.Spec{Kind: "vlm", Model: "gpt-9"}); err == nil {
		t.Fatal("Open accepted an unknown model ID")
	}
	if _, err := backend.Open(context.Background(), backend.Spec{Kind: "vlm"}); err == nil {
		t.Fatal("Open accepted a vlm spec with no model")
	}
}

func TestOpenVotingSpecRecursesMembers(t *testing.T) {
	spec := backend.Spec{
		Kind: "voting",
		Name: "duo",
		Members: []backend.Spec{
			{Kind: "vlm", Model: string(vlm.Gemini15Pro)},
			{Kind: "vlm", Model: string(vlm.Claude37)},
		},
	}
	b, err := backend.Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Name(); got != "duo" {
		t.Errorf("voting backend named %q", got)
	}
	bad := spec
	bad.Members = append(bad.Members, backend.Spec{Kind: "bogus"})
	if _, err := backend.Open(context.Background(), bad); err == nil {
		t.Fatal("Open accepted a voting spec with an unknown member kind")
	}
}

// TestOpenVotingSpecRejectsBadMembers: a voting spec needs members, and
// a member spec equal to an earlier one as a JSON document would vote
// twice, so the voting spec refuses it wherever it sits — remote members
// included — and names both positions.
func TestOpenVotingSpecRejectsBadMembers(t *testing.T) {
	gemini := backend.Spec{Kind: "vlm", Model: string(vlm.Gemini15Pro)}
	claude := backend.Spec{Kind: "vlm", Model: string(vlm.Claude37)}
	remote := backend.Spec{Kind: "http", Model: string(vlm.Grok2), BaseURL: "http://127.0.0.1:1"}
	cases := []struct {
		name    string
		members []backend.Spec
		want    string
	}{
		{"none", nil, "backend: open voting: voting spec needs members"},
		{"adjacent", []backend.Spec{gemini, gemini}, "backend: open voting: member 1 repeats member 0 and would vote twice"},
		{"apart", []backend.Spec{gemini, claude, gemini}, "backend: open voting: member 2 repeats member 0 and would vote twice"},
		{"remote", []backend.Spec{remote, claude, remote}, "backend: open voting: member 2 repeats member 0 and would vote twice"},
		{"empty-members", []backend.Spec{gemini, {Kind: "vlm", Model: string(vlm.Gemini15Pro), Members: []backend.Spec{}}}, "backend: open voting: member 1 repeats member 0 and would vote twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := backend.Open(context.Background(), backend.Spec{Kind: "voting", Members: tc.members})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Open = %v, want %q", err, tc.want)
			}
		})
	}
	// The same model behind another kind is a different member.
	other := backend.Spec{Kind: "http", Model: string(vlm.Gemini15Pro), BaseURL: "http://127.0.0.1:1"}
	b, err := backend.Open(context.Background(), backend.Spec{Kind: "voting", Members: []backend.Spec{gemini, other}})
	if err != nil {
		t.Fatalf("distinct member specs rejected: %v", err)
	}
	if err := backend.Close(b); err != nil {
		t.Fatal(err)
	}
}

func TestOpenTrainedKindsNeedEnv(t *testing.T) {
	for _, kind := range []string{"yolo", "cnn"} {
		if _, err := backend.Open(context.Background(), backend.Spec{Kind: kind}); err == nil {
			t.Errorf("Open %s without an env should fail", kind)
		}
	}
}

func TestRegisterCustomKind(t *testing.T) {
	backend.Register("registry-test-custom", func(ctx context.Context, s backend.Spec, env backend.Env) (backend.Backend, error) {
		return stubBackend{}, nil
	})
	b, err := backend.Open(context.Background(), backend.Spec{Kind: "registry-test-custom"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "stub" {
		t.Errorf("custom backend named %q", b.Name())
	}
	found := false
	for _, k := range backend.Kinds() {
		if k == "registry-test-custom" {
			found = true
		}
	}
	if !found {
		t.Error("Kinds does not list the custom kind")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	backend.Register("registry-test-custom", func(ctx context.Context, s backend.Spec, env backend.Env) (backend.Backend, error) {
		return nil, nil
	})
}

// stubBackend answers "no" to everything.
type stubBackend struct{}

func (stubBackend) Name() string                       { return "stub" }
func (stubBackend) Capabilities() backend.Capabilities { return backend.Capabilities{} }
func (stubBackend) Classify(_ context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	out := make([][]bool, len(req.Items))
	for i := range out {
		out[i] = make([]bool, len(req.Options.Indicators))
	}
	return backend.BatchResult{Answers: out}, nil
}
