// Package serve is the online inference gateway: a long-lived HTTP
// classification service over the backend registry, the layer that turns
// the batch-offline experiment runner's classifiers into something that
// serves live traffic.
//
// Requests arrive one frame at a time (POST /v1/classify, frame by
// dataset coordinate or image payload) and are coalesced into dynamic
// micro-batches per (backend, options) key: a batch flushes when it
// reaches the backend's preferred size or when the max-latency timer
// expires, whichever comes first, so the CNN and YOLO backends get one
// batched forward pass per flush instead of N single-item forwards.
// Around that core sits the production shell: a warm backend pool opened
// from a JSON Config (reusing backend.Spec), per-route admission control
// with bounded queues, an LRU result cache keyed by (frame, options),
// JSON health and metrics endpoints, and graceful drain.
//
// # The 503 / Retry-After contract
//
// When a route's admission queue is full, the gateway sheds the request
// with 503 Service Unavailable, a Retry-After header in delta-seconds,
// and a wire.ErrorResponse body ({"error": {"message", "type",
// "request_id"}}). This mirrors internal/llmserve's 429 semantics on
// purpose: both go through wire.Shed, so llmclient's retry loop —
// ParseRetryAfter, jittered backoff, the zero-seconds-is-no-guidance
// rule — interoperates with both services unchanged.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/geoindex"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
	"nbhd/internal/vlm"
	"nbhd/internal/wire"
)

// Config is the gateway's JSON-loadable configuration. The zero value of
// every knob takes a production-sane default, so a config file only
// names its backends.
type Config struct {
	// Backends maps route names to backend specs; the pool opens every
	// entry at startup so the first request never pays a cold start
	// (supervised kinds train during New, not during traffic).
	Backends map[string]backend.Spec `json:"backends"`
	// MaxBatch sets the coalesced batch size, overriding each
	// backend's PreferredBatch when positive (an operator tuning knob:
	// CPU-backed routes want small micro-batches, accelerator-backed
	// ones their preferred size). Zero uses the backend's
	// PreferredBatch (minimum 1); 1 disables coalescing — every
	// request dispatches alone (TestCoalescedBitIdenticalToSerial
	// pins that both settings answer identically).
	MaxBatch int `json:"max_batch,omitempty"`
	// BatchDelayMS is the max-latency flush timer in milliseconds: a
	// partial batch dispatches this long after its first request even if
	// it never fills. Zero defaults to 3ms; negative dispatches every
	// request immediately.
	BatchDelayMS int `json:"batch_delay_ms,omitempty"`
	// MaxDispatch caps concurrent Classify dispatches per route — the
	// model-replica budget. Each in-flight dispatch pins its own
	// scratch (an im2col workspace for the NN backends), so a node
	// bounds this the way it would bound GPU streams. Zero defers to
	// the backend's advertised MaxConcurrency; negative forces
	// unbounded.
	MaxDispatch int `json:"max_dispatch,omitempty"`
	// MaxQueue bounds each route's admitted-but-unfinished requests.
	// Requests beyond it are shed with 503 + Retry-After. Zero defaults
	// to 256.
	MaxQueue int `json:"max_queue,omitempty"`
	// RetryAfterSeconds is advertised on every shed 503 so well-behaved
	// clients pace their retries. Zero defaults to 1; negative omits the
	// header (clients fall back to their own backoff).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// CacheSize is the LRU result cache's entry budget. Zero defaults to
	// 1024; negative disables the cache (every request reaches the
	// coalescer).
	CacheSize int `json:"cache_size,omitempty"`
	// MaxImageBytes caps a decoded image upload; zero defaults to 8 MiB
	// (matching llmserve).
	MaxImageBytes int `json:"max_image_bytes,omitempty"`
	// DefaultRenderSize is the resolution for coordinate-addressed frames
	// when the backend does not require one; zero defaults to 96 (the
	// LLM render size).
	DefaultRenderSize int `json:"default_render_size,omitempty"`
}

// ParseConfig decodes a JSON config under the strict wire rule (no
// unknown fields, no trailing data), so typos fail loudly at boot
// instead of silently serving defaults.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := wire.DecodeStrict(bytes.NewReader(data), &cfg); err != nil {
		return Config{}, fmt.Errorf("serve: parse config: %w", err)
	}
	return cfg, nil
}

// DefaultBackends is the paper's route set: the four simulated models
// plus the top-three committee of Gemini, Claude and Grok.
func DefaultBackends() map[string]backend.Spec {
	routes := make(map[string]backend.Spec, len(vlm.AllModels())+1)
	for _, id := range vlm.AllModels() {
		routes[string(id)] = backend.Spec{Kind: "vlm", Model: string(id)}
	}
	committee := backend.Spec{Kind: "voting", Name: "committee"}
	for _, id := range ensemble.PaperCommittee() {
		committee.Members = append(committee.Members, backend.Spec{Kind: "vlm", Model: string(id)})
	}
	routes["committee"] = committee
	return routes
}

func (c Config) withDefaults() Config {
	if c.BatchDelayMS == 0 {
		c.BatchDelayMS = 3
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.RetryAfterSeconds == 0 {
		c.RetryAfterSeconds = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxImageBytes == 0 {
		c.MaxImageBytes = 8 << 20
	}
	if c.DefaultRenderSize == 0 {
		c.DefaultRenderSize = 96
	}
	return c
}

// Options supplies the run environment a Server is built into.
type Options struct {
	// Env is handed to backend.OpenWith for spec kinds that train (yolo,
	// cnn); nil is fine for stateless kinds.
	Env backend.Env
	// Frames enables coordinate-addressed requests ({"frame": {"index":
	// N}}) against this render cache; nil restricts the gateway to image
	// payloads.
	Frames *dataset.RenderCache
	// Backends are pre-opened backends mounted as routes alongside the
	// config's specs (tests inject fakes, nbhdbench shares one trained
	// model across gateway runs). The caller keeps ownership:
	// Close does not close injected backends. Names must not collide
	// with config specs.
	Backends map[string]backend.Backend
}

// Server is the classification gateway. Build one with New, mount
// Handler on an http.Server, and on shutdown call Drain, then
// http.Server.Shutdown, then Close — in that order, so every admitted
// request finishes with a real answer before the backend pool is
// released.
type Server struct {
	cfg    Config
	frames *dataset.RenderCache
	routes map[string]*route
	names  []string
	// results is the shared LRU answer cache; nil when disabled.
	results *lru
	start   time.Time
	ids     *wire.IDs

	draining atomic.Bool
	// baseCtx outlives any single request: dispatched batches answer
	// every co-batched waiter even if the triggering client hangs up,
	// and drain lets in-flight batches finish. Close cancels it.
	baseCtx context.Context
	cancel  context.CancelFunc

	// owned are the spec-opened backends Close releases (injected ones
	// stay with their owner).
	owned     []backend.Backend
	closeOnce sync.Once
	closeErr  error

	// geo is the lazily built spatial index over the attached dataset's
	// coordinates (see spatial.go); unused without Options.Frames.
	geoOnce sync.Once
	geo     *geoindex.Index
}

// New opens every configured backend into a warm pool and assembles the
// gateway. The context governs opening only (it cancels supervised
// training); the server's own lifetime ends at Close.
func New(ctx context.Context, cfg Config, opts Options) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends)+len(opts.Backends) == 0 {
		return nil, fmt.Errorf("serve: config has no backends")
	}
	s := &Server{
		cfg:    cfg,
		frames: opts.Frames,
		routes: make(map[string]*route, len(cfg.Backends)+len(opts.Backends)),
		start:  time.Now(),
		ids:    wire.NewIDs("srv"),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	if cfg.CacheSize > 0 {
		s.results = newLRU(cfg.CacheSize)
	}
	for name, b := range opts.Backends {
		if b == nil {
			return nil, fmt.Errorf("serve: injected backend %q is nil", name)
		}
		s.routes[name] = s.newRoute(name, b)
	}
	// Open specs in sorted order so supervised kinds train in a
	// deterministic sequence.
	names := make([]string, 0, len(cfg.Backends))
	for name := range cfg.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, dup := s.routes[name]; dup {
			_ = s.Close()
			return nil, fmt.Errorf("serve: backend %q both injected and configured", name)
		}
		b, err := backend.OpenWith(ctx, cfg.Backends[name], opts.Env)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("serve: open backend %q: %w", name, err)
		}
		s.owned = append(s.owned, b)
		s.routes[name] = s.newRoute(name, b)
	}
	for name := range s.routes {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	return s, nil
}

func (s *Server) newRoute(name string, b backend.Backend) *route {
	caps := b.Capabilities()
	maxBatch := s.cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = caps.PreferredBatch
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	delay := time.Duration(s.cfg.BatchDelayMS) * time.Millisecond
	if delay < 0 {
		delay = 0
	}
	rt := &route{
		srv:        s,
		name:       name,
		b:          b,
		caps:       caps,
		maxBatch:   maxBatch,
		delay:      delay,
		renderSize: caps.RenderSize,
		queue:      make(chan struct{}, s.cfg.MaxQueue),
		coal:       make(map[string]*coalescer),
		met:        newRouteMetrics(),
	}
	if rt.renderSize == 0 {
		rt.renderSize = s.cfg.DefaultRenderSize
	}
	dispatch := s.cfg.MaxDispatch
	if dispatch == 0 {
		dispatch = caps.MaxConcurrency
	}
	if dispatch > 0 {
		rt.dispatchSem = make(chan struct{}, dispatch)
	}
	return rt
}

// Routes returns the mounted route names, sorted.
func (s *Server) Routes() []string { return append([]string(nil), s.names...) }

// Drain marks the server as draining: /healthz flips to 503 so load
// balancers stop routing here, while already-admitted requests keep
// being served. Pair it with http.Server.Shutdown, which stops
// accepting connections and waits for in-flight handlers.
func (s *Server) Drain() { s.draining.Store(true) }

// Close cancels in-flight dispatches and releases the spec-opened
// backend pool (injected backends stay with their owner). Call it after
// http.Server.Shutdown has drained the handlers.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		var errs []error
		for _, b := range s.owned {
			if err := backend.Close(b); err != nil {
				errs = append(errs, err)
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/nearest", s.handleNearest)
	mux.HandleFunc("/v1/neighborhood", s.handleNeighborhood)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metricsz", s.handleMetrics)
	return mux
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST", reqID)
		return
	}
	// req aliases body, and body's buffer goes back to the pool once
	// the response is written.
	var req ClassifyRequest
	body, buf, herr := wire.ReadPooledBody(w, r, render.UploadBodyLimit(s.cfg.MaxImageBytes))
	defer wire.ReleaseBody(buf)
	if herr == nil {
		herr = DecodeClassify(body, &req)
	}
	if herr != nil {
		herr.Write(w, reqID)
		return
	}
	rt, herr := s.lookup(req.Backend)
	if herr != nil {
		herr.Write(w, reqID)
		return
	}
	opts, herr := req.options()
	if herr != nil {
		herr.Write(w, reqID)
		return
	}
	fr, herr := s.resolveFrame(rt, &req.Frame)
	if herr != nil {
		herr.Write(w, reqID)
		return
	}
	defer fr.release()
	if !rt.admit(w, reqID) {
		return
	}
	defer rt.release()

	start := time.Now()
	res, err := rt.answer(r.Context(), &fr, opts)
	if err != nil {
		rt.fail(w, r, err, reqID)
		return
	}
	rt.met.okOne(time.Since(start))
	wire.WriteJSON(w, http.StatusOK, ClassifyResponse{
		Backend:    rt.name,
		Frame:      fr.item.ID,
		Indicators: indicatorNames(opts.Indicators),
		Answers:    res.answers,
		BatchSize:  res.batchSize,
		Cached:     res.cached,
		RequestID:  reqID,
	})
}

// lookup finds a request's route: a backend name the gateway does not
// mount is a 404 unknown_backend.
func (s *Server) lookup(name string) (*route, *wire.Error) {
	rt, ok := s.routes[name]
	if !ok {
		return nil, &wire.Error{Status: http.StatusNotFound, Type: "unknown_backend",
			Message: fmt.Sprintf("unknown backend %q (serving: %v)", name, s.names)}
	}
	return rt, nil
}

// admit counts a request and takes one slot of the route's bounded
// admission queue for it, held until release once the response is
// written. A full queue sheds the request with 503 + Retry-After and
// admit reports false.
func (rt *route) admit(w http.ResponseWriter, reqID string) bool {
	rt.met.request()
	select {
	case rt.queue <- struct{}{}:
		return true
	default:
		rt.met.shedOne()
		wire.Shed(w, http.StatusServiceUnavailable, "overloaded", fmt.Sprintf("backend %q queue full (%d in flight)", rt.name, cap(rt.queue)), reqID, rt.srv.cfg.RetryAfterSeconds)
		return false
	}
}

// release frees the slot admit took.
func (rt *route) release() { <-rt.queue }

// answer is the one way a request reaches the backend: the LRU result
// cache answers a repeat, and a miss loads the frame's item, goes
// through the route's coalescer and fills the cache with the fresh
// answer.
func (rt *route) answer(ctx context.Context, fr *frame, opts backend.Options) (callResult, error) {
	results := rt.srv.results
	key := ShardKey(rt.name, rt.caps.Quantized, opts, fr.key)
	if results != nil {
		if ans, ok := results.get(key); ok {
			rt.met.cacheHit()
			return callResult{answers: ans, cached: true}, nil
		}
	}
	item, err := fr.load()
	if err != nil {
		return callResult{}, err
	}
	res, err := rt.enqueue(ctx, fr.key, item, opts)
	if err != nil {
		return callResult{}, err
	}
	if results != nil {
		results.add(key, res.answers)
	}
	return res, nil
}

// fail answers an admitted request whose answer failed, counting the
// error: nothing when the client hung up (nobody is listening; a batch
// still served its other members), a 503 shed while the server is
// closing, and a 500 backend_error otherwise.
func (rt *route) fail(w http.ResponseWriter, r *http.Request, err error, reqID string) {
	rt.met.failOne()
	switch {
	case r.Context().Err() != nil:
	case rt.srv.baseCtx.Err() != nil:
		wire.Shed(w, http.StatusServiceUnavailable, "overloaded", "server is shutting down", reqID, rt.srv.cfg.RetryAfterSeconds)
	default:
		wire.WriteError(w, http.StatusInternalServerError, "backend_error", err.Error(), reqID)
	}
}

// options lowers the request's knobs to backend options (lowerOptions).
func (req *ClassifyRequest) options() (backend.Options, *wire.Error) {
	return lowerOptions(req.Indicators, req.Language, req.Mode, req.Temperature, req.TopP, req.Nonce)
}

// lowerOptions lowers a request's wire knobs to backend options,
// normalizing defaults so semantically identical requests share a
// coalescer key. It is deliberately free of server state: the fleet
// router runs the same canonicalization through RequestShardKey and
// NeighborhoodShardKey.
func lowerOptions(indicators []string, language, mode string, temperature, topP float64, nonce int64) (backend.Options, *wire.Error) {
	var opts backend.Options
	if len(indicators) == 0 {
		inds := scene.Indicators()
		opts.Indicators = inds[:]
	} else {
		opts.Indicators = make([]scene.Indicator, len(indicators))
		for i, name := range indicators {
			ind, err := scene.ParseIndicator(name)
			if err != nil {
				return backend.Options{}, wire.BadRequest("%v", err)
			}
			opts.Indicators[i] = ind
		}
	}
	opts.Language = prompt.English
	if language != "" {
		lang, err := prompt.ParseLanguage(language)
		if err != nil {
			return backend.Options{}, wire.BadRequest("%v", err)
		}
		opts.Language = lang
	}
	opts.Mode = prompt.Parallel
	if mode != "" {
		m, err := prompt.ParseMode(mode)
		if err != nil {
			return backend.Options{}, wire.BadRequest("%v", err)
		}
		opts.Mode = m
	}
	opts.Temperature = temperature
	opts.TopP = topP
	opts.Nonce = nonce
	return opts, nil
}

// checkRefs enforces the frame-reference rule the gateway and the
// fleet router share: exactly one addressing mode is set.
func (ref *FrameRef) checkRefs() error {
	refs := 0
	if ref.Index != nil {
		refs++
	}
	if ref.ImageF32Base64 != "" || len(ref.f32) > 0 {
		refs++
	}
	if ref.ImagePNGBase64 != "" {
		refs++
	}
	if refs != 1 {
		return fmt.Errorf("frame needs exactly one of index, image_f32_base64, image_png_base64 (got %d)", refs)
	}
	return nil
}

// resolveFrame turns a frame reference into the frame a request
// answers. It is the one place an upload becomes a key. The caller
// releases the frame once the request is answered.
func (s *Server) resolveFrame(rt *route, ref *FrameRef) (frame, *wire.Error) {
	if err := ref.checkRefs(); err != nil {
		return frame{}, wire.BadRequest("%v", err)
	}
	switch {
	case ref.Index != nil:
		if s.frames == nil {
			return frame{}, wire.BadRequest("this gateway serves no dataset; address frames by image payload")
		}
		fr, err := rt.indexFrame(*ref.Index)
		if err != nil {
			return frame{}, wire.BadRequest("%v", err)
		}
		return fr, nil
	case ref.ImagePNGBase64 != "":
		img, err := render.DecodeBase64PNG(ref.ImagePNGBase64, s.cfg.MaxImageBytes)
		if err != nil {
			return frame{}, uploadError(err)
		}
		pixels := append(appendHeader(nil, img.W, img.H), img.EncodeRawF32()...)
		return frame{key: uploadKey(pixels), item: backend.Item{ID: "upload", Image: img}}, nil
	default:
		fr, err := rawUpload(ref.imageF32(), ref.Width, ref.Height, s.cfg.MaxImageBytes)
		if err != nil {
			return frame{}, uploadError(err)
		}
		return fr, nil
	}
}

// indexFrame renders dataset frame idx at the route's render size; the
// frame key names both.
func (rt *route) indexFrame(idx int) (frame, error) {
	ex, err := rt.srv.frames.Example(idx, rt.renderSize)
	if err != nil {
		return frame{}, err
	}
	return frame{key: fmt.Sprintf("idx:%d@%d", idx, rt.renderSize), item: backend.Item{ID: ex.ID, Image: ex.Image}}, nil
}

// uploadError maps an image upload failure to its response: 413
// payload_too_large over the size cap, 400 otherwise.
func uploadError(err error) *wire.Error {
	if errors.Is(err, render.ErrTooLarge) {
		return &wire.Error{Status: http.StatusRequestEntityTooLarge, Type: "payload_too_large", Message: err.Error()}
	}
	return wire.BadRequest("%v", err)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		Draining:      s.draining.Load(),
		Backends:      s.Routes(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	status := http.StatusOK
	if h.Draining {
		// Draining flips healthz unhealthy so load balancers stop
		// routing here; admitted requests still complete.
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.Metrics())
}

// Metrics snapshots the gateway's counters — what /metricsz serves.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Routes:        make(map[string]RouteMetrics, len(s.routes)),
	}
	if s.results != nil {
		snap.CacheEntries, snap.CacheCapacity = s.results.size()
	}
	for name, rt := range s.routes {
		rm := rt.met.snapshot(len(rt.queue), cap(rt.queue))
		rm.Quantized = rt.caps.Quantized
		if cs, ok := backend.StatsOf(rt.b); ok {
			rm.Compute = &cs
		}
		snap.Routes[name] = rm
	}
	snap.Compute = tensor.Stats()
	return snap
}
