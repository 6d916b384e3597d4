package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nbhd/internal/llmserve"
	"nbhd/internal/serve"
)

// Router is the fleet's front door: it computes each request's shard
// key with the same derivation the gateways use for their result
// caches, forwards the request to the ring owner, and walks the ring's
// successor order when the owner is unreachable. It rides the same
// admission/drain shell shape as a gateway: /healthz flips to 503 on
// Drain, /metricsz reports per-replica route counts, failovers, and the
// ring generation.
//
// Responses pass through unchanged apart from two tracing headers:
// X-Fleet-Replica names the serving replica, and X-Fleet-Failover
// carries the successor index (absent when the owner served). A
// replica's 503 + Retry-After shed propagates verbatim and is never
// retried on another member — shedding is the fleet telling the client
// to slow down, and bouncing the request to a sibling would turn
// admission control into load amplification.
//
// With Config.SpillFactor set above 1, the router additionally runs
// consistent hashing with bounded loads: a request whose owner already
// carries more than SpillFactor times the fleet-average in-flight count
// is served by the next ring successor under its bound (tagged
// X-Fleet-Spill). A Zipf-headed workload otherwise caps the whole fleet
// at the hot shard's ceiling; bounded spill trades a slice of the hot
// key's cache affinity for fleet-wide saturation.
type Router struct {
	ring    *Ring
	resolve func(id string) (string, bool)
	client  *http.Client

	quantized  map[string]bool
	failover   int
	retryAfter int
	maxBody    int64
	spill      float64

	start    time.Time
	draining atomic.Bool
	reqSeq   atomic.Int64

	mu        sync.Mutex
	forwarded map[string]int64
	fwdErrors map[string]int64
	inflight  map[string]int64
	requests  int64
	failovers int64
	spills    int64
	noReplica int64
}

// RouterOptions tune a router beyond its fleet config.
type RouterOptions struct {
	// QuantizedRoutes marks routes whose backends run int8 inference,
	// so the router's shard keys carry the same quantized bit the
	// gateways put in their cache keys. Spec-configured routes are
	// derived from the fleet config; entries here overlay injected
	// routes (tests).
	QuantizedRoutes map[string]bool
	// Client issues the forwarded requests; nil builds a pooled client
	// (idle connections per replica, no per-request TCP churn).
	Client *http.Client
	// MaxBodyBytes bounds a buffered request body; zero defaults to the
	// gateway's image cap plus JSON scaffolding headroom.
	MaxBodyBytes int64
}

// NewRouter assembles a router over a ring and a replica-URL resolver
// (usually Supervisor.URLOf). The cfg supplies failover and Retry-After
// policy plus the spec-derived quantized route set.
func NewRouter(ring *Ring, resolve func(id string) (string, bool), cfg Config, opts RouterOptions) *Router {
	cfg = cfg.withDefaults()
	quant := cfg.QuantizedRoutes()
	for name, q := range opts.QuantizedRoutes {
		quant[name] = q
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		imageCap := cfg.Gateway.MaxImageBytes
		if imageCap == 0 {
			imageCap = 8 << 20
		}
		maxBody = int64(imageCap)*2 + 1<<20
	}
	failover := cfg.FailoverRetries
	if failover < 0 {
		failover = 0
	}
	return &Router{
		ring:       ring,
		resolve:    resolve,
		client:     client,
		quantized:  quant,
		failover:   failover,
		retryAfter: cfg.RetryAfterSeconds,
		maxBody:    maxBody,
		spill:      cfg.SpillFactor,
		start:      time.Now(),
		forwarded:  make(map[string]int64),
		fwdErrors:  make(map[string]int64),
		inflight:   make(map[string]int64),
	}
}

// Handler returns the router's HTTP handler: the three data-plane
// routes plus its own health and metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", rt.handleClassify)
	mux.HandleFunc("/v1/neighborhood", rt.handleNeighborhood)
	mux.HandleFunc("/v1/nearest", rt.handleNearest)
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/metricsz", rt.handleMetrics)
	return mux
}

// Drain flips /healthz to 503 so upstream load balancers stop sending
// traffic; in-flight forwards finish normally, mirroring serve.Drain.
func (rt *Router) Drain() { rt.draining.Store(true) }

func (rt *Router) nextReqID() string {
	return fmt.Sprintf("flt-%06d", rt.reqSeq.Add(1))
}

// writeError emits the llmserve-shaped error body both services speak.
func writeError(w http.ResponseWriter, status int, typ, msg, reqID string) {
	var body llmserve.ErrorResponse
	body.Error.Message = msg
	body.Error.Type = typ
	body.Error.RequestID = reqID
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// write503 sheds at the router itself (no healthy replica, all
// candidates unreachable), advertising the configured Retry-After.
func (rt *Router) write503(w http.ResponseWriter, msg, reqID string) {
	if rt.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfter))
	}
	writeError(w, http.StatusServiceUnavailable, "overloaded", msg, reqID)
}

func (rt *Router) handleClassify(w http.ResponseWriter, r *http.Request) {
	reqID := rt.nextReqID()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST", reqID)
		return
	}
	body, req, ok := readBody[serve.ClassifyRequest](w, r, rt.maxBody, reqID)
	if !ok {
		return
	}
	key, err := serve.RequestShardKey(req, rt.quantized[req.Backend])
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error(), reqID)
		return
	}
	rt.forward(w, r, key, body, reqID)
}

func (rt *Router) handleNeighborhood(w http.ResponseWriter, r *http.Request) {
	reqID := rt.nextReqID()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST", reqID)
		return
	}
	body, req, ok := readBody[serve.NeighborhoodRequest](w, r, rt.maxBody, reqID)
	if !ok {
		return
	}
	key, err := serve.NeighborhoodShardKey(req, rt.quantized[req.Backend])
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error(), reqID)
		return
	}
	rt.forward(w, r, key, body, reqID)
}

func (rt *Router) handleNearest(w http.ResponseWriter, r *http.Request) {
	reqID := rt.nextReqID()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use GET", reqID)
		return
	}
	// Nearest queries touch no per-key gateway state (the spatial index
	// is identical on every replica), so the key only needs to spread
	// identical queries consistently; the raw query string does that.
	rt.forward(w, r, "nearest|"+r.URL.RawQuery, nil, reqID)
}

// readBody buffers and decodes a JSON request body, returning the raw
// bytes for re-sending downstream. On failure it writes the error
// response (413 for a body over limit, 400 otherwise) and reports false,
// so a truncated body is never forwarded.
func readBody[T any](w http.ResponseWriter, r *http.Request, limit int64, reqID string) ([]byte, *T, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "invalid_request_error",
				fmt.Sprintf("request body exceeds limit of %d bytes", limit), reqID)
		} else {
			writeError(w, http.StatusBadRequest, "invalid_request_error", "read body: "+err.Error(), reqID)
		}
		return nil, nil, false
	}
	var req T
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request_error", "empty or malformed JSON body: "+err.Error(), reqID)
		return nil, nil, false
	}
	return body, &req, true
}

// spillOrder applies consistent hashing with bounded loads to the
// candidate list: if the owner's in-flight count is at or above
// SpillFactor times the fleet-wide average, the first successor under
// its bound serves instead. The rotation keeps every candidate in the
// list (ring order preserved after the chosen head), so transport
// failover still walks the full successor sequence. Returns the
// possibly-reordered candidates and whether the head changed.
func (rt *Router) spillOrder(candidates []string) ([]string, bool) {
	if rt.spill <= 1 || len(candidates) < 2 {
		return candidates, false
	}
	members := rt.ring.Len()
	if members < 2 {
		return candidates, false
	}
	rt.mu.Lock()
	var total int64
	for _, n := range rt.inflight {
		total += n
	}
	// The +1 counts this request: each member may carry at most
	// ceil(spill * (total+1) / members) in-flight forwards.
	bound := int64(math.Ceil(rt.spill * float64(total+1) / float64(members)))
	choice := -1
	for i, id := range candidates {
		if rt.inflight[id] < bound {
			choice = i
			break
		}
	}
	if choice > 0 {
		rt.spills++
	}
	rt.mu.Unlock()
	if choice <= 0 {
		// Owner under bound, or every candidate saturated: keep ring order.
		return candidates, false
	}
	rotated := make([]string, 0, len(candidates))
	rotated = append(rotated, candidates[choice])
	rotated = append(rotated, candidates[:choice]...)
	rotated = append(rotated, candidates[choice+1:]...)
	return rotated, true
}

// forward sends the buffered request to the key's owner, walking the
// ring's successor order on transport failure. Whatever HTTP status the
// first reachable replica returns — 200, 4xx, or a 503 shed — passes
// through unchanged; only "cannot reach the replica at all" advances to
// the next candidate.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, reqID string) {
	rt.mu.Lock()
	rt.requests++
	rt.mu.Unlock()
	candidates := rt.ring.Successors(key, rt.failover+1)
	if len(candidates) == 0 {
		rt.mu.Lock()
		rt.noReplica++
		rt.mu.Unlock()
		rt.write503(w, "no healthy replicas in the ring", reqID)
		return
	}
	candidates, spilled := rt.spillOrder(candidates)
	for i, id := range candidates {
		url, ok := rt.resolve(id)
		if !ok {
			continue
		}
		var payload io.Reader
		if body != nil {
			payload = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, url+r.URL.RequestURI(), payload)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "router_error", err.Error(), reqID)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rt.mu.Lock()
		rt.inflight[id]++
		rt.mu.Unlock()
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.mu.Lock()
			rt.inflight[id]--
			rt.mu.Unlock()
			if r.Context().Err() != nil {
				// The client hung up; nobody is listening for an answer.
				return
			}
			// Replica down or draining past its listener: count it and
			// fail over to the next ring successor. The supervisor's
			// health poll will take it out of the ring shortly; until
			// then this per-request path covers the gap.
			rt.mu.Lock()
			rt.fwdErrors[id]++
			if i < len(candidates)-1 {
				rt.failovers++
			}
			rt.mu.Unlock()
			continue
		}
		rt.relay(w, resp, id, i, spilled)
		rt.mu.Lock()
		rt.inflight[id]--
		rt.mu.Unlock()
		return
	}
	rt.write503(w, fmt.Sprintf("all %d candidate replicas unreachable", len(candidates)), reqID)
}

// relay copies one replica response to the client, tagging it with the
// fleet tracing headers.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, id string, attempt int, spilled bool) {
	defer func() { _ = resp.Body.Close() }()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Replica", id)
	if attempt > 0 {
		w.Header().Set("X-Fleet-Failover", strconv.Itoa(attempt))
	}
	if spilled && attempt == 0 {
		w.Header().Set("X-Fleet-Spill", "1")
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	rt.mu.Lock()
	rt.forwarded[id]++
	rt.mu.Unlock()
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:         "ok",
		Draining:       rt.draining.Load(),
		RingReplicas:   rt.ring.Len(),
		RingGeneration: rt.ring.Generation(),
		UptimeSeconds:  time.Since(rt.start).Seconds(),
	}
	status := http.StatusOK
	switch {
	case h.Draining:
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case h.RingReplicas == 0:
		h.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(rt.Metrics())
}

// Metrics snapshots the router's counters — what /metricsz serves.
func (rt *Router) Metrics() Metrics {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := Metrics{
		UptimeSeconds:  time.Since(rt.start).Seconds(),
		Draining:       rt.draining.Load(),
		RingGeneration: rt.ring.Generation(),
		RingReplicas:   rt.ring.Members(),
		Requests:       rt.requests,
		Failovers:      rt.failovers,
		LoadSpills:     rt.spills,
		NoReplica503:   rt.noReplica,
		Forwarded:      make(map[string]int64, len(rt.forwarded)),
		ForwardErrors:  make(map[string]int64, len(rt.fwdErrors)),
	}
	for id, n := range rt.forwarded {
		m.Forwarded[id] = n
	}
	for id, n := range rt.fwdErrors {
		m.ForwardErrors[id] = n
	}
	return m
}

// Health is the router's /healthz body.
type Health struct {
	// Status is "ok", "draining", or "degraded" (empty ring).
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// RingReplicas counts current ring members; RingGeneration counts
	// membership changes since boot.
	RingReplicas   int     `json:"ring_replicas"`
	RingGeneration uint64  `json:"ring_generation"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// Metrics is the router's /metricsz body.
type Metrics struct {
	UptimeSeconds  float64  `json:"uptime_seconds"`
	Draining       bool     `json:"draining"`
	RingGeneration uint64   `json:"ring_generation"`
	RingReplicas   []string `json:"ring_replicas"`
	// Requests counts everything routed; Forwarded breaks successful
	// relays down by serving replica, ForwardErrors counts unreachable
	// forward attempts per replica.
	Requests      int64            `json:"requests"`
	Forwarded     map[string]int64 `json:"forwarded"`
	ForwardErrors map[string]int64 `json:"forward_errors"`
	// Failovers counts requests that advanced past at least one dead
	// candidate; LoadSpills counts requests rerouted off an over-bound
	// owner by SpillFactor; NoReplica503 counts router-origin sheds.
	Failovers    int64 `json:"failovers"`
	LoadSpills   int64 `json:"load_spills"`
	NoReplica503 int64 `json:"no_replica_503"`
}
