package backend_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/ensemble"
	"nbhd/internal/llmclient"
	"nbhd/internal/llmserve"
	"nbhd/internal/prompt"
	"nbhd/internal/vlm"
)

// The acceptance bar for the backend layer: for deterministic settings,
// sweeping a model through the HTTP stack — llmserve in-process via
// httptest, llmclient with the lossless image encoding — produces a
// ClassReport bit-identical to sweeping the same model in-process, and
// stays identical when the server injects 429s and the client retries.

func integrationPipeline(t *testing.T, coords int) *core.Pipeline {
	t.Helper()
	p, err := core.NewPipeline(core.Config{Coordinates: coords, Seed: 5})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	return p
}

func startLLMServer(t *testing.T, cfg llmserve.Config) *httptest.Server {
	t.Helper()
	srv, err := llmserve.NewBuiltin(cfg)
	if err != nil {
		t.Fatalf("NewBuiltin: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func localVLM(t *testing.T, id vlm.ModelID) backend.Backend {
	t.Helper()
	p, err := vlm.ProfileFor(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vlm.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.NewVLM(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func httpVLM(t *testing.T, client *llmclient.Client, id vlm.ModelID) backend.Backend {
	t.Helper()
	b, err := backend.NewHTTP(backend.HTTPConfig{Client: client, Model: id, MaxInFlight: 6})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHTTPBackendBitIdenticalToLocal(t *testing.T) {
	pipe := integrationPipeline(t, 8)
	ts := startLLMServer(t, llmserve.Config{})
	client, err := llmclient.New(llmclient.Config{
		BaseURL:     ts.URL,
		BaseBackoff: time.Millisecond,
		Encoding:    llmclient.EncodeRawF32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := pipe.NewEvaluator(core.EvalConfig{Workers: 4})
	ctx := context.Background()
	cases := []struct {
		name string
		id   vlm.ModelID
		opts core.LLMOptions
	}{
		{"gemini-defaults", vlm.Gemini15Pro, core.LLMOptions{}},
		{"claude-sequential-spanish", vlm.Claude37, core.LLMOptions{Language: prompt.Spanish, Mode: prompt.Sequential}},
		{"grok-frame-limit", vlm.Grok2, core.LLMOptions{FrameLimit: 13}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ev.EvaluateBackend(ctx, localVLM(t, tc.id), tc.opts)
			if err != nil {
				t.Fatalf("local sweep: %v", err)
			}
			got, err := ev.EvaluateBackend(ctx, httpVLM(t, client, tc.id), tc.opts)
			if err != nil {
				t.Fatalf("http sweep: %v", err)
			}
			if *got != *want {
				t.Errorf("HTTP report diverges from local\ngot:  %+v\nwant: %+v", *got, *want)
			}
		})
	}
}

func TestHTTPBackendBitIdenticalUnderInjected429s(t *testing.T) {
	pipe := integrationPipeline(t, 6)
	// Heavy chaos: 30% 429s and 10% 500s. The server advertises its
	// default Retry-After: 1; the client's MaxRetryAfter caps the honored
	// delay so the test absorbs dozens of retries without real sleeps —
	// and none of it may change a single confusion count.
	ts := startLLMServer(t, llmserve.Config{
		Failures: llmserve.FailureConfig{Prob429: 0.3, Prob500: 0.1, Seed: 11},
	})
	client, err := llmclient.New(llmclient.Config{
		BaseURL:       ts.URL,
		MaxRetries:    25,
		BaseBackoff:   time.Millisecond,
		MaxRetryAfter: time.Millisecond,
		Encoding:      llmclient.EncodeRawF32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := pipe.NewEvaluator(core.EvalConfig{Workers: 4})
	ctx := context.Background()
	want, err := ev.EvaluateBackend(ctx, localVLM(t, vlm.ChatGPT4oMini), core.LLMOptions{})
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	got, err := ev.EvaluateBackend(ctx, httpVLM(t, client, vlm.ChatGPT4oMini), core.LLMOptions{})
	if err != nil {
		t.Fatalf("http sweep under chaos: %v", err)
	}
	if *got != *want {
		t.Errorf("chaos-mode HTTP report diverges from local\ngot:  %+v\nwant: %+v", *got, *want)
	}
}

// TestRemoteVotingMatchesLocalCommittee: the committee spec over three
// HTTP members reproduces the same spec over in-process vlm members
// exactly — the paper's majority-voting step, fully remote.
func TestRemoteVotingMatchesLocalCommittee(t *testing.T) {
	pipe := integrationPipeline(t, 6)
	ts := startLLMServer(t, llmserve.Config{})
	committee := func(member func(vlm.ModelID) backend.Spec) backend.Backend {
		spec := backend.Spec{Kind: "voting", Name: "committee"}
		for _, id := range ensemble.PaperCommittee() {
			spec.Members = append(spec.Members, member(id))
		}
		b, err := backend.Open(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = backend.Close(b) })
		return b
	}
	local := committee(func(id vlm.ModelID) backend.Spec {
		return backend.Spec{Kind: "vlm", Model: string(id)}
	})
	remote := committee(func(id vlm.ModelID) backend.Spec {
		return backend.Spec{Kind: "http", Model: string(id), BaseURL: ts.URL, BaseBackoffMS: 1}
	})
	ev := pipe.NewEvaluator(core.EvalConfig{Workers: 4})
	ctx := context.Background()
	want, err := ev.EvaluateBackend(ctx, local, core.LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvaluateBackend(ctx, remote, core.LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("remote voting diverges from local committee\ngot:  %+v\nwant: %+v", *got, *want)
	}
}
