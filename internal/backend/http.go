package backend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nbhd/internal/llmclient"
	"nbhd/internal/vlm"
)

func init() {
	Register("http", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		if s.BaseURL == "" {
			return nil, fmt.Errorf("http spec needs a base_url")
		}
		var enc llmclient.ImageEncoding
		switch s.Encoding {
		case "", "raw_f32":
			// Lossless by default so spec-driven remote runs reproduce
			// in-process reports bit for bit.
			enc = llmclient.EncodeRawF32
		case "png":
			enc = llmclient.EncodePNG
		default:
			return nil, fmt.Errorf("http spec has unknown encoding %q (want raw_f32 or png)", s.Encoding)
		}
		client, err := llmclient.New(llmclient.Config{
			BaseURL:       s.BaseURL,
			APIKey:        s.APIKey,
			Encoding:      enc,
			MaxRetries:    s.MaxRetries,
			BaseBackoff:   time.Duration(s.BaseBackoffMS) * time.Millisecond,
			MaxRetryAfter: time.Duration(s.MaxRetryAfterMS) * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		return NewHTTP(HTTPConfig{
			Client:         client,
			Model:          vlm.ModelID(s.Model),
			MaxInFlight:    s.MaxInFlight,
			PreferredBatch: s.PreferredBatch,
		})
	})
}

// HTTPConfig configures the remote HTTP backend.
type HTTPConfig struct {
	// Client is the llmclient the backend sends completions through; it
	// owns retry, backoff, and Retry-After handling. Required.
	Client *llmclient.Client
	// Model is the served model ID to query. Required.
	Model vlm.ModelID
	// MaxInFlight bounds concurrent HTTP requests across all batches the
	// engine hands this backend; zero defaults to 4.
	MaxInFlight int
	// PreferredBatch is the batch size advertised to the engine; zero
	// defaults to 8.
	PreferredBatch int
}

// HTTP classifies frames through the chat-completions API: each batch
// fans its items out as concurrent requests bounded by a shared
// in-flight semaphore, and the underlying client retries 429/5xx with
// jittered backoff (honoring the server's Retry-After). With the
// client's lossless image encoding, reports are bit-identical to the
// Local backend over the same corpus.
type HTTP struct {
	cfg HTTPConfig
	sem chan struct{}
}

// NewHTTP builds the remote backend.
func NewHTTP(cfg HTTPConfig) (*HTTP, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("backend: http backend needs a client")
	}
	if cfg.Model == "" {
		return nil, fmt.Errorf("backend: http backend needs a model ID")
	}
	if cfg.MaxInFlight < 0 || cfg.PreferredBatch < 0 {
		return nil, fmt.Errorf("backend: negative concurrency/batch (%d, %d)", cfg.MaxInFlight, cfg.PreferredBatch)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.PreferredBatch == 0 {
		cfg.PreferredBatch = 8
	}
	return &HTTP{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight)}, nil
}

// Name identifies the backend.
func (h *HTTP) Name() string { return "http:" + string(h.cfg.Model) }

// Close releases the adapter's owned resources: the underlying client's
// pooled idle connections. The backend stays usable; Close just returns
// sockets a retired backend would otherwise hold until GC.
func (h *HTTP) Close() error {
	h.cfg.Client.CloseIdle()
	return nil
}

// Capabilities: remote models cannot consume precomputed perception
// features (the server perceives behind the API); batches amortize engine overhead
// and MaxConcurrency keeps the engine from queuing more batches than
// the in-flight budget can serve.
func (h *HTTP) Capabilities() Capabilities {
	return Capabilities{
		PreferredBatch: h.cfg.PreferredBatch,
		MaxConcurrency: h.cfg.MaxInFlight,
	}
}

// Classify fans the batch out over bounded concurrent requests. The
// first failure cancels the rest of the batch.
func (h *HTTP) Classify(ctx context.Context, req BatchRequest) (BatchResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts := llmclient.ClassifyOptions{
		Language:    req.Options.Language,
		Mode:        req.Options.Mode,
		Temperature: req.Options.Temperature,
		TopP:        req.Options.TopP,
		Nonce:       req.Options.Nonce,
	}
	answers := make([][]bool, len(req.Items))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case h.sem <- struct{}{}:
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			defer func() { <-h.sem }()
			it := &req.Items[i]
			ans, err := h.cfg.Client.Classify(ctx, h.cfg.Model, it.Image, req.Options.Indicators, opts)
			if err != nil {
				fail(fmt.Errorf("backend: %s: classify %s: %w", h.Name(), it.ID, err))
				return
			}
			answers[i] = ans
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return BatchResult{}, firstErr
	}
	return BatchResult{Answers: answers}, nil
}
