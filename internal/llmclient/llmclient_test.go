package llmclient

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"nbhd/internal/dataset"
	"nbhd/internal/llmserve"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

func startServer(t *testing.T, cfg llmserve.Config) (*httptest.Server, *llmserve.Server) {
	t.Helper()
	srv, err := llmserve.NewBuiltin(cfg)
	if err != nil {
		t.Fatalf("NewBuiltin: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func testClient(t *testing.T, baseURL string) *Client {
	t.Helper()
	c, err := New(Config{BaseURL: baseURL, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func testImages(t *testing.T, n int) (*dataset.Study, []*render.Image) {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: (n + 3) / 4, Seed: 1})
	if err != nil {
		t.Fatalf("BuildStudy: %v", err)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ex, err := st.RenderExamples(idx, 96)
	if err != nil {
		t.Fatalf("RenderExamples: %v", err)
	}
	imgs := make([]*render.Image, n)
	for i := range ex {
		imgs[i] = ex[i].Image
	}
	return st, imgs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing base URL accepted")
	}
	if _, err := New(Config{BaseURL: "http://x", MaxRetries: -1}); err == nil {
		t.Error("negative retries accepted")
	}
}

func TestModels(t *testing.T) {
	ts, _ := startServer(t, llmserve.Config{})
	c := testClient(t, ts.URL)
	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatalf("Models: %v", err)
	}
	if len(models) != 4 {
		t.Fatalf("models = %v", models)
	}
}

func TestClassifyParallel(t *testing.T) {
	ts, srv := startServer(t, llmserve.Config{})
	c := testClient(t, ts.URL)
	_, imgs := testImages(t, 1)
	inds := scene.Indicators()
	answers, err := c.Classify(context.Background(), vlm.Gemini15Pro, imgs[0], inds[:], ClassifyOptions{})
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(answers) != 6 {
		t.Fatalf("answers = %d", len(answers))
	}
	if srv.RequestsServed() != 1 {
		t.Errorf("parallel mode used %d requests, want 1", srv.RequestsServed())
	}
}

func TestClassifySequentialUsesOneRequestPerQuestion(t *testing.T) {
	ts, srv := startServer(t, llmserve.Config{})
	c := testClient(t, ts.URL)
	_, imgs := testImages(t, 1)
	inds := scene.Indicators()
	answers, err := c.Classify(context.Background(), vlm.Claude37, imgs[0], inds[:], ClassifyOptions{Mode: prompt.Sequential})
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(answers) != 6 {
		t.Fatalf("answers = %d", len(answers))
	}
	if srv.RequestsServed() != 6 {
		t.Errorf("sequential mode used %d requests, want 6", srv.RequestsServed())
	}
}

func TestClassifyMatchesDirectModel(t *testing.T) {
	// Going through the HTTP stack must produce exactly the answers the
	// in-process model gives for the same request parameters.
	ts, _ := startServer(t, llmserve.Config{})
	c := testClient(t, ts.URL)
	st, imgs := testImages(t, 8)
	_ = st
	inds := scene.Indicators()
	p, err := vlm.ProfileFor(vlm.Grok2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := vlm.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		viaHTTP, err := c.Classify(context.Background(), vlm.Grok2, img, inds[:], ClassifyOptions{})
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		// The server sees the image after PNG quantization, so the
		// direct comparison must use the same round-tripped pixels.
		var png bytes.Buffer
		if err := img.EncodePNG(&png); err != nil {
			t.Fatal(err)
		}
		roundTripped, err := render.DecodePNG(&png)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Classify(vlm.Request{Image: roundTripped, Indicators: inds[:]})
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if viaHTTP[k] != want[k] {
				t.Fatalf("image %d indicator %d: HTTP answer %v, direct %v", i, k, viaHTTP[k], want[k])
			}
		}
	}
}

func TestRetriesOn429(t *testing.T) {
	// ~50% of requests fail with 429; retries must still land every call.
	ts, _ := startServer(t, llmserve.Config{Failures: llmserve.FailureConfig{Prob429: 0.5, Seed: 7}})
	// MaxRetryAfter caps the server's default 1s Retry-After so the test
	// exercises many retries without real sleeps.
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 10, BaseBackoff: time.Millisecond, MaxRetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, imgs := testImages(t, 4)
	inds := scene.Indicators()
	for i, img := range imgs {
		if _, err := c.Classify(context.Background(), vlm.Gemini15Pro, img, inds[:], ClassifyOptions{}); err != nil {
			t.Fatalf("image %d failed despite retries: %v", i, err)
		}
	}
}

func TestNonRetryableFailsFast(t *testing.T) {
	ts, srv := startServer(t, llmserve.Config{})
	c := testClient(t, ts.URL)
	_, imgs := testImages(t, 1)
	// Unknown model -> 404, must not retry.
	_, err := c.Classify(context.Background(), "nope", imgs[0], []scene.Indicator{scene.Sidewalk}, ClassifyOptions{})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	var se *StatusError
	if !isStatusError(err, &se) || se.StatusCode != 404 {
		t.Errorf("error = %v, want 404 StatusError", err)
	}
	if srv.RequestsServed() != 0 {
		t.Errorf("server accepted %d requests", srv.RequestsServed())
	}
}

func TestAskValidation(t *testing.T) {
	ts, _ := startServer(t, llmserve.Config{})
	c := testClient(t, ts.URL)
	if _, err := c.Ask(context.Background(), vlm.Grok2, nil, "hi", 0, 0, 0); err == nil {
		t.Error("nil image accepted")
	}
	_, imgs := testImages(t, 1)
	if _, err := c.Classify(context.Background(), vlm.Grok2, imgs[0], nil, ClassifyOptions{}); err == nil {
		t.Error("empty indicators accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	ts, _ := startServer(t, llmserve.Config{Failures: llmserve.FailureConfig{Prob429: 1, Seed: 1}})
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 100, BaseBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, imgs := testImages(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.Classify(ctx, vlm.Grok2, imgs[0], []scene.Indicator{scene.Sidewalk}, ClassifyOptions{})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestStatusErrorMessage(t *testing.T) {
	e := &StatusError{StatusCode: 429, Type: "quota_exceeded", Message: "slow down"}
	if got := e.Error(); got == "" || !contains(got, "429") || !contains(got, "slow down") {
		t.Errorf("Error() = %q", got)
	}
	e.RequestID = "req-000042"
	if got := e.Error(); !contains(got, "req-000042") {
		t.Errorf("Error() = %q, want request ID included", got)
	}
}

// TestRetryDelayJitterBounds: without a Retry-After, the delay is the
// current backoff with full jitter in [backoff/2, backoff].
func TestRetryDelayJitterBounds(t *testing.T) {
	backoff := 80 * time.Millisecond
	lastErr := &StatusError{StatusCode: 500}
	sawBelowBackoff := false
	for i := 0; i < 200; i++ {
		d := retryDelay(backoff, lastErr, 30*time.Second)
		if d < backoff/2 || d > backoff {
			t.Fatalf("delay %v outside [%v, %v]", d, backoff/2, backoff)
		}
		if d < backoff {
			sawBelowBackoff = true
		}
	}
	if !sawBelowBackoff {
		t.Error("200 jittered delays all equal to backoff — jitter looks absent")
	}
	if d := retryDelay(0, lastErr, 30*time.Second); d != 0 {
		t.Errorf("zero backoff delay = %v", d)
	}
}

// TestRetryDelayHonorsRetryAfter: a 429 carrying Retry-After overrides
// the backoff schedule, capped at MaxRetryAfter; non-429s ignore it.
func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	after := &StatusError{StatusCode: 429, RetryAfter: 2 * time.Second, HasRetryAfter: true}
	if d := retryDelay(time.Millisecond, after, 30*time.Second); d != 2*time.Second {
		t.Errorf("delay = %v, want server's 2s", d)
	}
	// Above the cap, the delay is the jittered cap — clients that all
	// hit the ceiling must not retry in lockstep.
	if d := retryDelay(time.Millisecond, after, time.Second); d < 500*time.Millisecond || d > time.Second {
		t.Errorf("capped delay = %v, want jittered cap in [500ms, 1s]", d)
	}
	// Retry-After 0 is "no pacing guidance": the jittered backoff still
	// applies so clients never synchronize into zero-delay retries.
	immediate := &StatusError{StatusCode: 429, RetryAfter: 0, HasRetryAfter: true}
	if d := retryDelay(10*time.Millisecond, immediate, 30*time.Second); d < 5*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("Retry-After 0 delay = %v, want jittered backoff in [5ms, 10ms]", d)
	}
	// A 500 with a (nonsensical) Retry-After still uses backoff.
	ignored := &StatusError{StatusCode: 500, RetryAfter: time.Hour, HasRetryAfter: true}
	if d := retryDelay(10*time.Millisecond, ignored, 30*time.Second); d > 10*time.Millisecond {
		t.Errorf("non-429 delay = %v, want backoff-bounded", d)
	}
}

// TestHonorsServerRetryAfterOverBackoff: the server advertises
// Retry-After: 1 on injected 429s; a client with a pathological base
// backoff (first jittered sleep >= 15s) must follow the header and
// finish fast instead of sleeping out the doubling schedule.
func TestHonorsServerRetryAfterOverBackoff(t *testing.T) {
	ts, _ := startServer(t, llmserve.Config{
		RetryAfterSeconds: 1,
		Failures:          llmserve.FailureConfig{Prob429: 0.5, Seed: 7},
	})
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 20, BaseBackoff: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, imgs := testImages(t, 1)
	inds := scene.Indicators()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Classify(ctx, vlm.Gemini15Pro, imgs[0], inds[:], ClassifyOptions{}); err != nil {
		t.Fatalf("Classify: %v (client likely ignored Retry-After and slept the backoff)", err)
	}
}

// TestErrorBodiesCarryRequestIDs: injected failures come back with the
// server's request ID so chaos-mode retries are traceable.
func TestErrorBodiesCarryRequestIDs(t *testing.T) {
	ts, _ := startServer(t, llmserve.Config{
		Failures: llmserve.FailureConfig{Prob429: 1, Seed: 1},
	})
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 0, BaseBackoff: time.Millisecond, MaxRetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, imgs := testImages(t, 1)
	_, err = c.Classify(context.Background(), vlm.Grok2, imgs[0], []scene.Indicator{scene.Sidewalk}, ClassifyOptions{})
	var se *StatusError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.RequestID == "" {
		t.Error("429 body carried no request ID")
	}
	if !se.HasRetryAfter {
		t.Error("429 carried no Retry-After")
	}
	if !contains(err.Error(), se.RequestID) {
		t.Errorf("error text %q omits request ID %q", err.Error(), se.RequestID)
	}
}

// TestRawF32EncodingIsLossless: with the raw-float32 image encoding the
// server sees the exact pixels, so HTTP answers equal the in-process
// model's on the original (un-quantized) image.
func TestRawF32EncodingIsLossless(t *testing.T) {
	ts, _ := startServer(t, llmserve.Config{})
	c, err := New(Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond, Encoding: EncodeRawF32})
	if err != nil {
		t.Fatal(err)
	}
	_, imgs := testImages(t, 4)
	inds := scene.Indicators()
	p, err := vlm.ProfileFor(vlm.Grok2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := vlm.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		viaHTTP, err := c.Classify(context.Background(), vlm.Grok2, img, inds[:], ClassifyOptions{})
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		want, err := direct.Classify(vlm.Request{Image: img, Indicators: inds[:]})
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if viaHTTP[k] != want[k] {
				t.Fatalf("image %d indicator %d: HTTP answer %v, direct %v", i, k, viaHTTP[k], want[k])
			}
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAPIKeyAuth(t *testing.T) {
	srv, err := llmserve.NewBuiltin(llmserve.Config{APIKeys: []string{"sk-test"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, imgs := testImages(t, 1)
	inds := scene.Indicators()

	// Without a key: 401, no retry storm.
	noKey, err := New(Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = noKey.Classify(context.Background(), vlm.Grok2, imgs[0], inds[:], ClassifyOptions{})
	var se *StatusError
	if err == nil || !isStatusError(err, &se) || se.StatusCode != 401 {
		t.Errorf("keyless request error = %v, want 401", err)
	}

	// Wrong key: 401.
	wrong, err := New(Config{BaseURL: ts.URL, APIKey: "sk-wrong", BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Classify(context.Background(), vlm.Grok2, imgs[0], inds[:], ClassifyOptions{}); err == nil {
		t.Error("wrong key accepted")
	}

	// Correct key: success.
	good, err := New(Config{BaseURL: ts.URL, APIKey: "sk-test", BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := good.Classify(context.Background(), vlm.Grok2, imgs[0], inds[:], ClassifyOptions{})
	if err != nil {
		t.Fatalf("authorized request failed: %v", err)
	}
	if len(answers) != 6 {
		t.Errorf("answers = %d", len(answers))
	}
}

// FuzzParseRetryAfter: any header value parses without panicking, and
// an accepted one is never a negative wait. Seeds live under
// testdata/fuzz/FuzzParseRetryAfter.
func FuzzParseRetryAfter(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		if d, ok := ParseRetryAfter(v); ok && d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = (%v, true): negative wait", v, d)
		}
	})
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in     string
		want   time.Duration
		wantOK bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"3", 3 * time.Second, true},
		{" 5 ", 5 * time.Second, true},
		{"-1", 0, false},
		{"abc", 0, false},
		{"1.5", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false},
		// Delays past time.Duration's range saturate instead of
		// wrapping into a short (2^64 ns + 290ms) or negative wait.
		{"9223372036", 9223372036 * time.Second, true},
		{"9223372037", math.MaxInt64, true},
		{"18446744074", math.MaxInt64, true},
		{"99999999999999999999", math.MaxInt64, true},
		{"-99999999999999999999", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParseRetryAfter(tc.in)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.wantOK)
		}
	}
}
