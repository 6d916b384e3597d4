package llmserve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
	"nbhd/internal/wire"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewBuiltin(cfg)
	if err != nil {
		t.Fatalf("NewBuiltin: %v", err)
	}
	return s
}

func testImagePNG(t *testing.T) string {
	t.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 1, Seed: 1})
	if err != nil {
		t.Fatalf("BuildStudy: %v", err)
	}
	ex, err := st.RenderExamples([]int{0}, 96)
	if err != nil {
		t.Fatalf("RenderExamples: %v", err)
	}
	var buf bytes.Buffer
	if err := ex[0].Image.EncodePNG(&buf); err != nil {
		t.Fatalf("EncodePNG: %v", err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

func chatBody(t *testing.T, model, text, imgB64 string) []byte {
	t.Helper()
	req := ChatRequest{
		Model: model,
		Messages: []Message{{
			Role: "user",
			Content: []ContentPart{
				{Type: "text", Text: text},
				{Type: "image_png", ImagePNGBase64: imgB64},
			},
		}},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func parallelText(t *testing.T) string {
	t.Helper()
	order := prompt.PaperOrder()
	text, err := prompt.ParallelPrompt(order[:], prompt.English)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func post(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/chat/completions", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty model list accepted")
	}
	if _, err := NewBuiltin(Config{Failures: FailureConfig{Prob429: 2}}); err == nil {
		t.Error("bad failure config accepted")
	}
	p, err := vlm.ProfileFor(vlm.Grok2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vlm.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, m, m); err == nil {
		t.Error("duplicate model accepted")
	}
}

func TestModelsEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var list ModelList
	if err := json.NewDecoder(rec.Body).Decode(&list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(list.Data) != 4 {
		t.Fatalf("models = %d", len(list.Data))
	}
	// Sorted.
	for i := 1; i < len(list.Data); i++ {
		if list.Data[i-1].ID > list.Data[i].ID {
			t.Error("model list not sorted")
		}
	}
	// POST rejected.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models = %d", rec.Code)
	}
}

func TestChatCompletionHappyPath(t *testing.T) {
	s := testServer(t, Config{})
	img := testImagePNG(t)
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Gemini15Pro), parallelText(t), img))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp ChatResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Choices) != 1 {
		t.Fatalf("choices = %d", len(resp.Choices))
	}
	reply := resp.Choices[0].Message.Content[0].Text
	answers, err := prompt.ParseAnswers(reply, 6, prompt.English)
	if err != nil {
		t.Fatalf("reply %q: %v", reply, err)
	}
	if len(answers) != 6 {
		t.Errorf("answers = %d", len(answers))
	}
	if resp.Usage.TotalTokens <= 0 {
		t.Error("usage not reported")
	}
	if s.RequestsServed() != 1 {
		t.Errorf("served = %d", s.RequestsServed())
	}
}

func TestChatCompletionSequentialSingleQuestion(t *testing.T) {
	s := testServer(t, Config{})
	img := testImagePNG(t)
	q, err := prompt.Question(scene.Powerline, prompt.English)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Claude37), q, img))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp ChatResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if _, err := prompt.ParseAnswers(resp.Choices[0].Message.Content[0].Text, 1, prompt.English); err != nil {
		t.Errorf("single answer unparseable: %v", err)
	}
}

func TestChatCompletionSpanish(t *testing.T) {
	s := testServer(t, Config{})
	img := testImagePNG(t)
	order := prompt.PaperOrder()
	text, err := prompt.ParallelPrompt(order[:], prompt.Spanish)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Gemini15Pro), text, img))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp ChatResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	reply := resp.Choices[0].Message.Content[0].Text
	if _, err := prompt.ParseAnswers(reply, 6, prompt.Spanish); err != nil {
		t.Errorf("Spanish reply %q unparseable: %v", reply, err)
	}
}

func TestChatCompletionErrors(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	img := testImagePNG(t)
	var bombBuf bytes.Buffer
	if err := render.MustNewImage(1000, 1000).EncodePNG(&bombBuf); err != nil {
		t.Fatalf("encode bomb png: %v", err)
	}
	bombPNG := base64.StdEncoding.EncodeToString(bombBuf.Bytes())

	tests := []struct {
		name string
		body []byte
		want int
	}{
		{"malformed json", []byte("{"), http.StatusBadRequest},
		{"unknown model", chatBody(t, "gpt-9", parallelText(t), img), http.StatusNotFound},
		{"no questions", chatBody(t, string(vlm.Grok2), "describe this image", img), http.StatusBadRequest},
		{"bad base64", chatBody(t, string(vlm.Grok2), parallelText(t), "!!!"), http.StatusBadRequest},
		{"bad png", chatBody(t, string(vlm.Grok2), parallelText(t), base64.StdEncoding.EncodeToString([]byte("nope"))), http.StatusBadRequest},
		{"unknown field", []byte(`{"model":"grok-2","messages":[],"tyop":1}`), http.StatusBadRequest},
		{"trailing data", append(chatBody(t, string(vlm.Grok2), parallelText(t), img), '}'), http.StatusBadRequest},
		// The body limit is 2*MaxImageBytes + 1 MiB (the gateway's rule).
		{"body over the limit", []byte(`{"model":"grok-2","pad":"` + strings.Repeat("x", 17<<20+1) + `"}`), http.StatusRequestEntityTooLarge},
		// A decompression bomb: a few hundred bytes of PNG declaring
		// 1000x1000 pixels, 12 MB decoded, over the 8 MiB default cap.
		{"png decompression bomb", chatBody(t, string(vlm.Grok2), parallelText(t), bombPNG), http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := post(t, h, tt.body)
			if rec.Code != tt.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tt.want, rec.Body.String())
			}
		})
	}

	// Missing image.
	req := ChatRequest{
		Model:    string(vlm.Grok2),
		Messages: []Message{{Role: "user", Content: []ContentPart{{Type: "text", Text: parallelText(t)}}}},
	}
	b, _ := json.Marshal(req)
	if rec := post(t, h, b); rec.Code != http.StatusBadRequest {
		t.Errorf("missing image status = %d", rec.Code)
	}
	// GET method rejected.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chat/completions", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}
}

func TestImageSizeLimit(t *testing.T) {
	s := testServer(t, Config{MaxImageBytes: 10})
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized image status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "exceeds limit") {
		t.Errorf("unexpected error body: %s", rec.Body.String())
	}
}

func TestRequestBudget(t *testing.T) {
	s := testServer(t, Config{RequestBudget: 2})
	h := s.Handler()
	img := testImagePNG(t)
	body := chatBody(t, string(vlm.Grok2), parallelText(t), img)
	for i := 0; i < 2; i++ {
		if rec := post(t, h, body); rec.Code != http.StatusOK {
			t.Fatalf("request %d status = %d", i, rec.Code)
		}
	}
	if rec := post(t, h, body); rec.Code != http.StatusTooManyRequests {
		t.Errorf("over-budget status = %d", rec.Code)
	}
}

func TestFailureInjection(t *testing.T) {
	s := testServer(t, Config{Failures: FailureConfig{Prob429: 1, Seed: 1}})
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	s = testServer(t, Config{Failures: FailureConfig{Prob500: 1, Seed: 1}})
	rec = post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
}

func TestDeterministicAnswersAcrossRequests(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	body := chatBody(t, string(vlm.ChatGPT4oMini), parallelText(t), testImagePNG(t))
	reply := func() string {
		rec := post(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		var resp ChatResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp.Choices[0].Message.Content[0].Text
	}
	if a, b := reply(), reply(); a != b {
		t.Errorf("identical requests got different replies: %q vs %q", a, b)
	}
}

// TestInjected429CarriesRetryAfterAndRequestID: chaos-mode rejections
// must be pace-able (Retry-After) and traceable (request_id).
func TestInjected429CarriesRetryAfterAndRequestID(t *testing.T) {
	s := testServer(t, Config{
		RetryAfterSeconds: 2,
		Failures:          FailureConfig{Prob429: 1, Seed: 1},
	})
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var er wire.ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.RequestID == "" {
		t.Error("error body has no request_id")
	}
	// IDs advance per request.
	rec2 := post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	var er2 wire.ErrorResponse
	if err := json.NewDecoder(rec2.Body).Decode(&er2); err != nil {
		t.Fatal(err)
	}
	if er2.Error.RequestID == er.Error.RequestID {
		t.Errorf("request IDs did not advance: %q twice", er.Error.RequestID)
	}
}

// TestBudget429CarriesRetryAfter: quota exhaustion is a 429 too and
// must advertise the same pacing header.
func TestBudget429CarriesRetryAfter(t *testing.T) {
	s := testServer(t, Config{RequestBudget: 1, RetryAfterSeconds: 1})
	h := s.Handler()
	body := chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t))
	if rec := post(t, h, body); rec.Code != http.StatusOK {
		t.Fatalf("first request status = %d", rec.Code)
	}
	rec := post(t, h, body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
}

// TestImageF32ContentPart: the lossless image format decodes to the
// exact uploaded pixels and classifies like any other request.
func TestImageF32ContentPart(t *testing.T) {
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := st.RenderExamples([]int{0}, 96)
	if err != nil {
		t.Fatal(err)
	}
	img := ex[0].Image
	req := ChatRequest{
		Model: string(vlm.Gemini15Pro),
		Messages: []Message{{
			Role: "user",
			Content: []ContentPart{
				{Type: "text", Text: parallelText(t)},
				{
					Type:           "image_f32",
					Width:          img.W,
					Height:         img.H,
					ImageF32Base64: base64.StdEncoding.EncodeToString(img.EncodeRawF32()),
				},
			},
		}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{})
	rec := post(t, s.Handler(), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	// Mismatched dimensions are rejected.
	req.Messages[0].Content[1].Width = img.W + 1
	body, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(t, s.Handler(), body); rec.Code != http.StatusBadRequest {
		t.Errorf("bad-size status = %d, want 400", rec.Code)
	}
}

// TestRetryAfterDefaultsAndOmission: a default server advertises 1s
// (never "retry immediately"); a negative config omits the header.
func TestRetryAfterDefaultsAndOmission(t *testing.T) {
	s := testServer(t, Config{Failures: FailureConfig{Prob429: 1, Seed: 1}})
	rec := post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("default Retry-After = %q, want \"1\"", got)
	}
	s = testServer(t, Config{RetryAfterSeconds: -1, Failures: FailureConfig{Prob429: 1, Seed: 1}})
	rec = post(t, s.Handler(), chatBody(t, string(vlm.Grok2), parallelText(t), testImagePNG(t)))
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("negative-config Retry-After = %q, want absent", got)
	}
}
