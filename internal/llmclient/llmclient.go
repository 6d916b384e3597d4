// Package llmclient is the production-grade HTTP client for the simulated
// LLM service: request building (PNG or lossless raw-float32 upload as
// base64 content parts), retry with jittered exponential backoff on
// 429/5xx honoring the server's Retry-After, and response parsing.
// Corpus sweeps live in the evaluation engine: wrap a Client in a
// backend.HTTP and drive it with core.Evaluator.
package llmclient

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nbhd/internal/llmserve"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
	"nbhd/internal/wire"
)

// ImageEncoding selects how images travel to the server.
type ImageEncoding int

const (
	// EncodePNG (the default) uploads 8-bit PNGs — the lossy but
	// realistic transport a production deployment would use.
	EncodePNG ImageEncoding = iota
	// EncodeRawF32 uploads the raw float32 pixel buffer. The round trip
	// is lossless, so remote classification is bit-identical to running
	// the same model in-process on the same frames.
	EncodeRawF32
)

// Config configures a client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey, when non-empty, is sent as a bearer token.
	APIKey string
	// HTTPClient defaults to a client with a 30-second timeout.
	HTTPClient *http.Client
	// MaxRetries is the number of retry attempts after a retryable
	// failure (429, 5xx, transport error). Zero defaults to 3.
	MaxRetries int
	// BaseBackoff is the first retry delay; doubles per attempt, with
	// full jitter in [delay/2, delay]. Zero defaults to 50ms.
	BaseBackoff time.Duration
	// MaxRetryAfter caps how long the client honors a server's
	// Retry-After header before retrying anyway. Zero defaults to 30s.
	MaxRetryAfter time.Duration
	// Encoding selects the image wire format; the zero value is PNG.
	Encoding ImageEncoding
}

// Client talks to one server.
type Client struct {
	cfg Config
}

// New builds a client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("llmclient: base URL required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("llmclient: max retries must be non-negative, got %d", cfg.MaxRetries)
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxRetryAfter == 0 {
		cfg.MaxRetryAfter = 30 * time.Second
	}
	if cfg.Encoding != EncodePNG && cfg.Encoding != EncodeRawF32 {
		return nil, fmt.Errorf("llmclient: unknown image encoding %d", int(cfg.Encoding))
	}
	return &Client{cfg: cfg}, nil
}

// CloseIdle releases the client's pooled idle HTTP connections. The
// client remains usable afterwards; resource-owning backend adapters
// forward their Close here.
func (c *Client) CloseIdle() {
	c.cfg.HTTPClient.CloseIdleConnections()
}

// StatusError is a non-2xx API response.
type StatusError struct {
	StatusCode int
	Type       string
	Message    string
	// RequestID is the server-assigned request ID from the error body,
	// when present — it makes retries traceable in chaos mode.
	RequestID string
	// RetryAfter is the server's Retry-After delay; meaningful only when
	// HasRetryAfter is set (zero is a valid "retry immediately").
	RetryAfter    time.Duration
	HasRetryAfter bool
}

// Error formats the status error.
func (e *StatusError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("llmclient: server returned %d (%s) for request %s: %s", e.StatusCode, e.Type, e.RequestID, e.Message)
	}
	return fmt.Sprintf("llmclient: server returned %d (%s): %s", e.StatusCode, e.Type, e.Message)
}

// retryable reports whether a status is worth retrying.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// Models lists the models served.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/models", nil)
	if err != nil {
		return nil, fmt.Errorf("llmclient: build request: %w", err)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("llmclient: list models: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var list llmserve.ModelList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("llmclient: decode model list: %w", err)
	}
	out := make([]string, 0, len(list.Data))
	for _, m := range list.Data {
		out = append(out, m.ID)
	}
	return out, nil
}

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	se := &StatusError{StatusCode: resp.StatusCode, Type: "unknown", Message: string(body)}
	var er wire.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error.Message != "" {
		se.Type = er.Error.Type
		se.Message = er.Error.Message
		se.RequestID = er.Error.RequestID
	}
	if d, ok := ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
		se.RetryAfter = d
		se.HasRetryAfter = true
	}
	return se
}

// ParseRetryAfter parses a Retry-After header value in its delta-seconds
// form and reports whether it was present and valid. Only the
// delta-seconds form is recognized — llmserve and the serve gateway send
// nothing else — so HTTP-date values return false and callers fall back
// to their own backoff. A zero duration with ok=true means the server
// gave no pacing guidance, not "retry immediately" (see retryDelay). A
// delay too long for a time.Duration saturates at the longest one, so a
// huge value can never wrap into a short or negative wait.
func ParseRetryAfter(v string) (time.Duration, bool) {
	secs, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) || secs < 0 {
		return 0, false
	}
	if secs > math.MaxInt64/int64(time.Second) {
		return math.MaxInt64, true
	}
	return time.Duration(secs) * time.Second, true
}

// imagePart encodes the image in the client's configured wire format.
func (c *Client) imagePart(img *render.Image) (llmserve.ContentPart, error) {
	if c.cfg.Encoding == EncodeRawF32 {
		return llmserve.ContentPart{
			Type:           "image_f32",
			Width:          img.W,
			Height:         img.H,
			ImageF32Base64: base64.StdEncoding.EncodeToString(img.EncodeRawF32()),
		}, nil
	}
	var png bytes.Buffer
	if err := img.EncodePNG(&png); err != nil {
		return llmserve.ContentPart{}, err
	}
	return llmserve.ContentPart{
		Type:           "image_png",
		ImagePNGBase64: base64.StdEncoding.EncodeToString(png.Bytes()),
	}, nil
}

// retryDelay picks the next retry sleep: the server's Retry-After when
// the last 429 carried a positive one (capped at maxRetryAfter so a
// hostile or misconfigured server cannot park the client; the cap is
// jittered since every client hitting it would otherwise retry in
// lockstep), otherwise the current backoff with full jitter in
// [backoff/2, backoff] to decorrelate retry storms across concurrent
// requests. A Retry-After of 0 is treated as "no pacing guidance", not
// "hammer immediately" — the jittered backoff still applies, so a
// fleet of clients never synchronizes into zero-delay retries.
func retryDelay(backoff time.Duration, lastErr error, maxRetryAfter time.Duration) time.Duration {
	var se *StatusError
	if isStatusError(lastErr, &se) && se.StatusCode == http.StatusTooManyRequests && se.HasRetryAfter && se.RetryAfter > 0 {
		if se.RetryAfter > maxRetryAfter {
			return jitter(maxRetryAfter)
		}
		return se.RetryAfter
	}
	return jitter(backoff)
}

// jitter spreads a delay over [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Ask sends one prompt+image completion request and returns the reply
// text, retrying retryable failures with jittered exponential backoff
// (or the server's Retry-After on 429).
func (c *Client) Ask(ctx context.Context, model vlm.ModelID, img *render.Image, promptText string, temperature, topP float64, nonce int64) (string, error) {
	if img == nil {
		return "", fmt.Errorf("llmclient: nil image")
	}
	part, err := c.imagePart(img)
	if err != nil {
		return "", fmt.Errorf("llmclient: %w", err)
	}
	body := llmserve.ChatRequest{
		Model:       string(model),
		Temperature: temperature,
		TopP:        topP,
		Nonce:       nonce,
		Messages: []llmserve.Message{{
			Role: "user",
			Content: []llmserve.ContentPart{
				{Type: "text", Text: promptText},
				part,
			},
		}},
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return "", fmt.Errorf("llmclient: marshal request: %w", err)
	}

	backoff := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return "", fmt.Errorf("llmclient: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(retryDelay(backoff, lastErr, c.cfg.MaxRetryAfter)):
			}
			backoff *= 2
		}
		reply, err := c.once(ctx, payload)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		var se *StatusError
		if isStatusError(err, &se) && !retryable(se.StatusCode) {
			return "", err
		}
		if ctx.Err() != nil {
			return "", fmt.Errorf("llmclient: %w (last error: %v)", ctx.Err(), lastErr)
		}
	}
	return "", fmt.Errorf("llmclient: retries exhausted: %w", lastErr)
}

func isStatusError(err error, target **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*target = se
	}
	return ok
}

func (c *Client) once(ctx context.Context, payload []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/chat/completions", bytes.NewReader(payload))
	if err != nil {
		return "", fmt.Errorf("llmclient: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("llmclient: send: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	var out llmserve.ChatResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("llmclient: decode response: %w", err)
	}
	if len(out.Choices) == 0 || len(out.Choices[0].Message.Content) == 0 {
		return "", fmt.Errorf("llmclient: response has no choices")
	}
	return out.Choices[0].Message.Content[0].Text, nil
}

// ClassifyOptions parameterizes a classification call.
type ClassifyOptions struct {
	// Language defaults to English.
	Language prompt.Language
	// Mode defaults to Parallel. Sequential sends one request per
	// indicator (the paper's follow-up prompting).
	Mode prompt.Mode
	// Temperature and TopP are forwarded to the API (zero = provider
	// default).
	Temperature, TopP float64
	// Nonce decorrelates repeats.
	Nonce int64
}

// Classify asks the model about the given indicators on one image and
// returns the parsed per-indicator answers.
func (c *Client) Classify(ctx context.Context, model vlm.ModelID, img *render.Image, inds []scene.Indicator, opts ClassifyOptions) ([]bool, error) {
	if len(inds) == 0 {
		return nil, fmt.Errorf("llmclient: no indicators")
	}
	lang := opts.Language
	if lang == 0 {
		lang = prompt.English
	}
	mode := opts.Mode
	if mode == 0 {
		mode = prompt.Parallel
	}
	if mode == prompt.Parallel {
		text, err := prompt.ParallelPrompt(inds, lang)
		if err != nil {
			return nil, fmt.Errorf("llmclient: %w", err)
		}
		reply, err := c.Ask(ctx, model, img, text, opts.Temperature, opts.TopP, opts.Nonce)
		if err != nil {
			return nil, err
		}
		answers, err := prompt.ParseAnswers(reply, len(inds), lang)
		if err != nil {
			return nil, fmt.Errorf("llmclient: %w", err)
		}
		return answers, nil
	}
	texts, err := prompt.SequentialPrompts(inds, lang)
	if err != nil {
		return nil, fmt.Errorf("llmclient: %w", err)
	}
	answers := make([]bool, len(inds))
	for i, text := range texts {
		reply, err := c.Ask(ctx, model, img, text, opts.Temperature, opts.TopP, opts.Nonce)
		if err != nil {
			return nil, fmt.Errorf("llmclient: sequential question %d: %w", i, err)
		}
		one, err := prompt.ParseAnswers(reply, 1, lang)
		if err != nil {
			return nil, fmt.Errorf("llmclient: sequential question %d: %w", i, err)
		}
		answers[i] = one[0]
	}
	return answers, nil
}
