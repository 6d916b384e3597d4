// Package llmserve hosts simulated vision LLMs behind a
// chat-completions-style HTTP JSON API, so the evaluation pipeline
// exercises the same code path a real deployment would: images uploaded
// as base64 content parts (8-bit PNG, or a lossless raw-float32 format
// for bit-exact remote evaluation), prompt text parsed for language and
// questions, per-key rate limiting, and configurable failure injection
// (429s with Retry-After, 500s) with traceable request IDs for
// resilience testing.
//
// The rate-limit contract — delta-seconds Retry-After plus a
// wire.ErrorResponse body carrying message/type/request_id — is shared
// with the serving gateway (internal/serve), which sheds overload with
// 503 the same way this server rate-limits with 429: one llmclient-style
// retry loop (llmclient.ParseRetryAfter, jittered backoff, zero-seconds
// means no-guidance) handles both services. Request bodies are read
// whole under the same bound and decoded by the same strict rule as the
// gateway's (wire.DecodeBody), and uploads take the same guarded image
// decode.
package llmserve

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/vlm"
	"nbhd/internal/wire"
)

// Wire types, loosely following the OpenAI chat-completions schema the
// paper's scripts would have used.

// ContentPart is one element of a user message: text or an image.
type ContentPart struct {
	Type string `json:"type"`
	// Text is set when Type == "text".
	Text string `json:"text,omitempty"`
	// ImagePNGBase64 is set when Type == "image_png".
	ImagePNGBase64 string `json:"image_png_base64,omitempty"`
	// ImageF32Base64, Width, and Height are set when Type == "image_f32":
	// the raw little-endian float32 pixel buffer, a lossless alternative
	// to PNG that makes remote classification bit-identical to
	// in-process evaluation.
	ImageF32Base64 string `json:"image_f32_base64,omitempty"`
	Width          int    `json:"width,omitempty"`
	Height         int    `json:"height,omitempty"`
}

// Message is one chat message.
type Message struct {
	Role    string        `json:"role"`
	Content []ContentPart `json:"content"`
}

// ChatRequest is the request body for POST /v1/chat/completions.
type ChatRequest struct {
	Model       string    `json:"model"`
	Messages    []Message `json:"messages"`
	Temperature float64   `json:"temperature,omitempty"`
	TopP        float64   `json:"top_p,omitempty"`
	// Nonce decorrelates repeated identical requests; optional.
	Nonce int64 `json:"nonce,omitempty"`
}

// Choice is one completion alternative.
type Choice struct {
	Index        int     `json:"index"`
	Message      Message `json:"message"`
	FinishReason string  `json:"finish_reason"`
}

// Usage reports token accounting (approximate, for API fidelity).
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// ChatResponse is the completion response body.
type ChatResponse struct {
	ID      string   `json:"id"`
	Model   string   `json:"model"`
	Choices []Choice `json:"choices"`
	Usage   Usage    `json:"usage"`
}

// ModelList is the GET /v1/models response.
type ModelList struct {
	Data []ModelInfo `json:"data"`
}

// ModelInfo describes one served model.
type ModelInfo struct {
	ID string `json:"id"`
}

// FailureConfig injects transport-level failures for resilience testing.
type FailureConfig struct {
	// Prob429 is the probability a request is rejected with 429.
	Prob429 float64
	// Prob500 is the probability a request fails with 500.
	Prob500 float64
	// Seed makes injection deterministic.
	Seed int64
}

// Validate checks probability ranges.
func (f *FailureConfig) Validate() error {
	if f.Prob429 < 0 || f.Prob429 > 1 || f.Prob500 < 0 || f.Prob500 > 1 {
		return fmt.Errorf("llmserve: failure probabilities (%f, %f) outside [0,1]", f.Prob429, f.Prob500)
	}
	return nil
}

// Config configures the server.
type Config struct {
	// APIKeys lists accepted bearer tokens; empty means no auth
	// required. Clients send "Authorization: Bearer <key>".
	APIKeys []string
	// RequestBudget, if positive, caps the total number of completion
	// requests served (a simple quota, mimicking API billing limits).
	RequestBudget int
	// MaxImageBytes caps the decoded image payload; zero defaults to
	// 8 MiB.
	MaxImageBytes int
	// RetryAfterSeconds is advertised in the Retry-After header on every
	// 429 (injected failures and quota exhaustion) so well-behaved
	// clients pace their retries. Zero defaults to 1 second — a default
	// server never tells clients to retry with zero delay. Negative
	// omits the header entirely (clients fall back to their own
	// backoff).
	RetryAfterSeconds int
	// Failures optionally injects errors.
	Failures FailureConfig
}

// Server hosts simulated models.
type Server struct {
	cfg    Config
	models map[vlm.ModelID]*vlm.Model
	ids    *wire.IDs

	mu      sync.Mutex
	served  int
	failRNG *rand.Rand
}

// New builds a server hosting the given models.
func New(cfg Config, models ...*vlm.Model) (*Server, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("llmserve: server needs at least one model")
	}
	if err := cfg.Failures.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxImageBytes == 0 {
		cfg.MaxImageBytes = 8 << 20
	}
	if cfg.RetryAfterSeconds == 0 {
		cfg.RetryAfterSeconds = 1
	}
	byID := make(map[vlm.ModelID]*vlm.Model, len(models))
	for _, m := range models {
		if _, dup := byID[m.ID()]; dup {
			return nil, fmt.Errorf("llmserve: duplicate model %q", m.ID())
		}
		byID[m.ID()] = m
	}
	return &Server{
		cfg:     cfg,
		models:  byID,
		ids:     wire.NewIDs("req"),
		failRNG: rand.New(rand.NewSource(cfg.Failures.Seed)),
	}, nil
}

// NewBuiltin builds a server hosting all four paper models.
func NewBuiltin(cfg Config) (*Server, error) {
	models := make([]*vlm.Model, 0, 4)
	for _, id := range vlm.AllModels() {
		p, err := vlm.ProfileFor(id)
		if err != nil {
			return nil, err
		}
		m, err := vlm.NewModel(p)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return New(cfg, models...)
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/chat/completions", s.handleChat)
	mux.HandleFunc("/v1/models", s.handleModels)
	return mux
}

// RequestsServed returns the number of completion requests accepted.
func (s *Server) RequestsServed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use GET", "")
		return
	}
	var list ModelList
	for id := range s.models {
		list.Data = append(list.Data, ModelInfo{ID: string(id)})
	}
	// Stable order for clients.
	for i := 1; i < len(list.Data); i++ {
		for j := i; j > 0 && list.Data[j-1].ID > list.Data[j].ID; j-- {
			list.Data[j-1], list.Data[j] = list.Data[j], list.Data[j-1]
		}
	}
	wire.WriteJSON(w, http.StatusOK, list)
}

// injectFailure rolls the failure dice under the server lock.
func (s *Server) injectFailure() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	roll := s.failRNG.Float64()
	if roll < s.cfg.Failures.Prob429 {
		return http.StatusTooManyRequests
	}
	if roll < s.cfg.Failures.Prob429+s.cfg.Failures.Prob500 {
		return http.StatusInternalServerError
	}
	return 0
}

// authorize checks the Authorization header against the configured keys.
func (s *Server) authorize(r *http.Request) bool {
	if len(s.cfg.APIKeys) == 0 {
		return true
	}
	header := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(header, prefix) {
		return false
	}
	token := header[len(prefix):]
	for _, k := range s.cfg.APIKeys {
		if token == k {
			return true
		}
	}
	return false
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST", reqID)
		return
	}
	if !s.authorize(r) {
		wire.WriteError(w, http.StatusUnauthorized, "authentication_error", "missing or invalid API key", reqID)
		return
	}
	if status := s.injectFailure(); status != 0 {
		if status == http.StatusTooManyRequests {
			wire.Shed(w, status, "server_error", "injected failure", reqID, s.cfg.RetryAfterSeconds)
		} else {
			wire.WriteError(w, status, "server_error", "injected failure", reqID)
		}
		return
	}
	s.mu.Lock()
	if s.cfg.RequestBudget > 0 && s.served >= s.cfg.RequestBudget {
		s.mu.Unlock()
		wire.Shed(w, http.StatusTooManyRequests, "quota_exceeded", "request budget exhausted", reqID, s.cfg.RetryAfterSeconds)
		return
	}
	s.mu.Unlock()

	var req ChatRequest
	if herr := wire.DecodeBody(w, r, render.UploadBodyLimit(s.cfg.MaxImageBytes), &req); herr != nil {
		herr.Write(w, reqID)
		return
	}
	model, ok := s.models[vlm.ModelID(req.Model)]
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "model_not_found", fmt.Sprintf("unknown model %q", req.Model), reqID)
		return
	}
	text, img, err := s.extractContent(req)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", err.Error(), reqID)
		return
	}

	lang := prompt.DetectLanguage(text)
	inds := prompt.QuestionsIn(text, lang)
	if len(inds) == 0 {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "prompt contains no recognizable indicator question", reqID)
		return
	}
	mode := prompt.Parallel
	if len(inds) == 1 {
		mode = prompt.Sequential
	}
	answers, err := model.Classify(vlm.Request{
		Image:       img,
		Indicators:  inds,
		Language:    lang,
		Mode:        mode,
		Temperature: req.Temperature,
		TopP:        req.TopP,
		Nonce:       req.Nonce,
	})
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", err.Error(), reqID)
		return
	}

	s.mu.Lock()
	s.served++
	id := fmt.Sprintf("chatcmpl-%06d", s.served)
	s.mu.Unlock()

	reply := prompt.FormatAnswers(answers, lang)
	resp := ChatResponse{
		ID:    id,
		Model: req.Model,
		Choices: []Choice{{
			Index:        0,
			Message:      Message{Role: "assistant", Content: []ContentPart{{Type: "text", Text: reply}}},
			FinishReason: "stop",
		}},
		Usage: Usage{
			PromptTokens:     len(text)/4 + 256, // text + image budget
			CompletionTokens: len(reply) / 4,
		},
	}
	resp.Usage.TotalTokens = resp.Usage.PromptTokens + resp.Usage.CompletionTokens
	wire.WriteJSON(w, http.StatusOK, resp)
}

// extractContent pulls the prompt text and decoded image out of the
// message list.
func (s *Server) extractContent(req ChatRequest) (string, *render.Image, error) {
	var textParts []string
	var img *render.Image
	for _, msg := range req.Messages {
		if msg.Role != "user" {
			continue
		}
		for _, part := range msg.Content {
			switch part.Type {
			case "text":
				textParts = append(textParts, part.Text)
			case "image_png":
				decoded, err := render.DecodeBase64PNG(part.ImagePNGBase64, s.cfg.MaxImageBytes)
				if err != nil {
					return "", nil, err
				}
				img = decoded
			case "image_f32":
				raw, err := render.AppendRawF32Base64(nil, []byte(part.ImageF32Base64), part.Width, part.Height, s.cfg.MaxImageBytes)
				if err != nil {
					return "", nil, err
				}
				if img, err = render.DecodeRawF32(part.Width, part.Height, raw); err != nil {
					return "", nil, err
				}
			default:
				return "", nil, fmt.Errorf("unsupported content part type %q", part.Type)
			}
		}
	}
	if len(textParts) == 0 {
		return "", nil, fmt.Errorf("request has no text content")
	}
	if img == nil {
		return "", nil, fmt.Errorf("request has no image content")
	}
	return strings.Join(textParts, "\n"), img, nil
}
