package serve

// Wire types for the gateway's JSON API. Error bodies are
// wire.ErrorResponse, the one shape every service in the repository
// writes, so one client-side decoder handles them all.

import (
	"nbhd/internal/backend"
	"nbhd/internal/tensor"
)

// FrameRef addresses the frame to classify; exactly one addressing mode
// must be set.
type FrameRef struct {
	// Index addresses a frame of the gateway's attached dataset by its
	// corpus position; the gateway renders it (cached) at the backend's
	// required resolution.
	Index *int `json:"index,omitempty"`
	// ImageF32Base64 uploads the raw little-endian float32 pixel buffer
	// (lossless; Width and Height required) — the same wire format
	// llmserve accepts.
	ImageF32Base64 string `json:"image_f32_base64,omitempty"`
	Width          int    `json:"width,omitempty"`
	Height         int    `json:"height,omitempty"`
	// ImagePNGBase64 uploads an 8-bit PNG.
	ImagePNGBase64 string `json:"image_png_base64,omitempty"`
	// f32 is the image_f32_base64 literal as DecodeClassify's scanner
	// leaves it: a sub-slice of the request body, in place of
	// ImageF32Base64.
	f32 []byte
}

// imageF32 returns the image_f32_base64 literal, wherever the decoder
// left it.
func (ref *FrameRef) imageF32() []byte {
	if ref.f32 != nil {
		return ref.f32
	}
	return []byte(ref.ImageF32Base64)
}

// ClassifyRequest is the body of POST /v1/classify.
type ClassifyRequest struct {
	// Backend names the route (a key of the gateway's backend pool).
	Backend string `json:"backend"`
	// Frame is the frame to classify.
	Frame FrameRef `json:"frame"`
	// Indicators are the classes to ask about, by full name or
	// abbreviation; empty means all six in canonical order.
	Indicators []string `json:"indicators,omitempty"`
	// Language and Mode default to English / parallel.
	Language string `json:"language,omitempty"`
	Mode     string `json:"mode,omitempty"`
	// Temperature, TopP, and Nonce forward to the backend (zero =
	// defaults). Requests only coalesce with requests sharing all of
	// these knobs.
	Temperature float64 `json:"temperature,omitempty"`
	TopP        float64 `json:"top_p,omitempty"`
	Nonce       int64   `json:"nonce,omitempty"`
}

// ClassifyResponse is the 200 body of POST /v1/classify.
type ClassifyResponse struct {
	// Backend echoes the route name.
	Backend string `json:"backend"`
	// Frame identifies what was classified: the dataset frame ID for
	// coordinate-addressed requests, "upload" for image payloads.
	Frame string `json:"frame"`
	// Indicators and Answers are aligned: Answers[i] is the verdict for
	// Indicators[i].
	Indicators []string `json:"indicators"`
	Answers    []bool   `json:"answers"`
	// BatchSize is the size of the coalesced batch this answer was
	// computed in (0 for cache hits).
	BatchSize int `json:"batch_size,omitempty"`
	// Cached reports an LRU result-cache hit.
	Cached bool `json:"cached,omitempty"`
	// RequestID traces the request through logs and error bodies.
	RequestID string `json:"request_id"`
}

// WireCoordinate is a latitude/longitude pair on the wire.
type WireCoordinate struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// NearestResponse is the 200 body of GET /v1/nearest?lat=&lng=&k=.
type NearestResponse struct {
	// Query echoes the query point.
	Query WireCoordinate `json:"query"`
	// Results are the k nearest corpus coordinates, ordered by
	// (distance, coordinate group); exact, not approximate.
	Results   []NearestResult `json:"results"`
	RequestID string          `json:"request_id"`
}

// NearestResult is one corpus coordinate near the query point.
type NearestResult struct {
	Coordinate   WireCoordinate `json:"coordinate"`
	County       string         `json:"county"`
	DistanceFeet float64        `json:"distance_feet"`
	// Frames are the corpus frame indices at this coordinate (one per
	// cardinal heading), usable as /v1/classify frame.index values.
	Frames []int `json:"frames"`
}

// NeighborhoodRequest is the body of POST /v1/neighborhood: classify
// every corpus coordinate within RadiusFeet of (Lat, Lng) and fuse each
// coordinate's headings with any-vote fusion.
type NeighborhoodRequest struct {
	// Backend names the route, as in ClassifyRequest.
	Backend string `json:"backend"`
	// Lat and Lng center the query (both required).
	Lat *float64 `json:"lat"`
	Lng *float64 `json:"lng"`
	// RadiusFeet is the selection radius (required, positive).
	RadiusFeet float64 `json:"radius_feet"`
	// MaxCoordinates caps the sweep; the nearest coordinates win and the
	// response sets Truncated. Zero defaults to 64.
	MaxCoordinates int `json:"max_coordinates,omitempty"`
	// Indicators, Language, Mode, Temperature, TopP, and Nonce mean what
	// they mean on ClassifyRequest and share its coalescer/cache keys.
	Indicators  []string `json:"indicators,omitempty"`
	Language    string   `json:"language,omitempty"`
	Mode        string   `json:"mode,omitempty"`
	Temperature float64  `json:"temperature,omitempty"`
	TopP        float64  `json:"top_p,omitempty"`
	Nonce       int64    `json:"nonce,omitempty"`
}

// NeighborhoodResponse is the 200 body of POST /v1/neighborhood.
type NeighborhoodResponse struct {
	Backend    string         `json:"backend"`
	Query      WireCoordinate `json:"query"`
	RadiusFeet float64        `json:"radius_feet"`
	// Truncated reports that more coordinates matched than
	// MaxCoordinates allowed; the nearest ones were kept.
	Truncated bool `json:"truncated,omitempty"`
	// Locations are the classified coordinates, nearest first.
	Locations []LocationResult `json:"locations"`
	// Counts aggregates: indicator name -> number of locations where the
	// fused verdict is present.
	Counts    map[string]int `json:"counts"`
	RequestID string         `json:"request_id"`
}

// LocationResult is one fused coordinate verdict.
type LocationResult struct {
	Coordinate   WireCoordinate `json:"coordinate"`
	County       string         `json:"county"`
	DistanceFeet float64        `json:"distance_feet"`
	// Present lists the indicators whose any-vote fusion over the
	// coordinate's headings is positive.
	Present []string `json:"present"`
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Draining is set between Drain and process exit.
	Draining bool `json:"draining"`
	// Backends lists the mounted route names.
	Backends      []string `json:"backends"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

// MetricsSnapshot is the /metricsz body.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	// CacheEntries / CacheCapacity describe the shared LRU result cache
	// (both zero when disabled).
	CacheEntries  int `json:"cache_entries"`
	CacheCapacity int `json:"cache_capacity"`
	// Routes holds per-backend counters.
	Routes map[string]RouteMetrics `json:"routes"`
	// Compute holds the process-wide tensor kernel counters: GEMM calls
	// by numeric path and packed-panel scratch reuse (cache hits) vs
	// fresh allocations.
	Compute tensor.ComputeStats `json:"compute"`
}

// RouteMetrics are one route's counters.
type RouteMetrics struct {
	// Requests counts everything routed here; OK, Errors, and Shed
	// partition the outcomes (client disconnects land in Errors).
	// CacheHits counts frames answered from the LRU without touching
	// the backend: one per /v1/classify hit, and one per frame a
	// /v1/neighborhood sweep finds there, so it can exceed OK.
	Requests  int64 `json:"requests"`
	OK        int64 `json:"ok"`
	Errors    int64 `json:"errors"`
	Shed      int64 `json:"shed"`
	CacheHits int64 `json:"cache_hits"`
	// QDepth is the admission queue's current occupancy; QCapacity its
	// bound.
	QDepth    int `json:"qdepth"`
	QCapacity int `json:"queue_capacity"`
	// Batches counts dispatched coalesced batches; MeanBatch is unique
	// items per batch, and BatchHist maps batch size to occurrences.
	Batches   int64         `json:"batches"`
	MeanBatch float64       `json:"mean_batch"`
	BatchHist map[int]int64 `json:"batch_size_hist"`
	// DedupHits counts requests answered by a co-batched identical
	// request's inference (single-flight collapse inside the batch
	// window).
	DedupHits int64 `json:"dedup_hits"`
	// Latency summarizes served-request wall time.
	Latency LatencySummary `json:"latency_ms"`
	// Quantized reports the backend runs int8 inference.
	Quantized bool `json:"quantized,omitempty"`
	// Compute holds the backend's model-level f32-vs-int8 dispatch
	// counters; nil for backends without an in-process model.
	Compute *backend.ComputeStats `json:"compute,omitempty"`
}

// LatencySummary holds quantiles over the most recent served requests
// (a bounded ring, so long-running gateways report current behavior).
type LatencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}
