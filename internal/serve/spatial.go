package serve

// Spatial endpoints: GET /v1/nearest answers "which corpus coordinates
// are closest to here" from the gateway's spatial index, and POST
// /v1/neighborhood classifies every coordinate within a radius and
// fuses each coordinate's four headings with any-vote fusion, as an
// analysis job of the core evaluator's Walk does over the whole corpus. Both
// require a dataset (Options.Frames); index queries are exact,
// bit-identical to a linear scan with geo.Coordinate.DistanceFeet (see
// internal/geoindex).
//
// /v1/neighborhood rides the classify path's shell: the whole request
// takes one admission slot, its frames flow through the same coalescer
// and LRU result cache as /v1/classify (a frame classified by one
// endpoint is a cache hit for the other), and drain semantics are
// unchanged.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/geo"
	"nbhd/internal/geoindex"
	"nbhd/internal/wire"
)

// framesPerCoordinate mirrors the corpus layout: dataset.BuildStudy
// emits one frame per cardinal heading, consecutively per coordinate.
var framesPerCoordinate = len(geo.CardinalHeadings())

// defaultMaxCoordinates bounds a /v1/neighborhood sweep: at four frames
// per coordinate this caps one request at 256 classifications.
const defaultMaxCoordinates = 64

// geoIndex lazily builds the per-coordinate spatial index over the
// attached dataset (entry ID = coordinate group, i.e. frame index /
// framesPerCoordinate). Built once, on the first spatial request.
func (s *Server) geoIndex() *geoindex.Index {
	s.geoOnce.Do(func() {
		frames := s.frames.Study().Frames
		n := len(frames) / framesPerCoordinate
		entries := make([]geoindex.Entry, n)
		for g := 0; g < n; g++ {
			entries[g] = geoindex.Entry{
				Coord: frames[g*framesPerCoordinate].Scene.Point.Coordinate,
				ID:    g,
			}
		}
		s.geo = geoindex.Build(entries)
	})
	return s.geo
}

// groupFrames returns the corpus frame indices of one coordinate group.
func groupFrames(g int) []int {
	out := make([]int, framesPerCoordinate)
	for i := range out {
		out[i] = g*framesPerCoordinate + i
	}
	return out
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use GET", reqID)
		return
	}
	if s.frames == nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "this gateway serves no dataset; spatial queries are unavailable", reqID)
		return
	}
	q := r.URL.Query()
	lat, err := strconv.ParseFloat(q.Get("lat"), 64)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "lat must be a float: "+q.Get("lat"), reqID)
		return
	}
	lng, err := strconv.ParseFloat(q.Get("lng"), 64)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "lng must be a float: "+q.Get("lng"), reqID)
		return
	}
	k := 1
	if ks := q.Get("k"); ks != "" {
		k, err = strconv.Atoi(ks)
		if err != nil || k < 1 {
			wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "k must be a positive integer: "+ks, reqID)
			return
		}
	}
	center := geo.Coordinate{Lat: lat, Lng: lng}
	hits := s.geoIndex().KNearest(center, k)
	resp := NearestResponse{
		Query:     WireCoordinate{Lat: lat, Lng: lng},
		Results:   make([]NearestResult, 0, len(hits)),
		RequestID: reqID,
	}
	frames := s.frames.Study().Frames
	for _, h := range hits {
		fr := frames[h.ID*framesPerCoordinate]
		resp.Results = append(resp.Results, NearestResult{
			Coordinate:   WireCoordinate{Lat: h.Coord.Lat, Lng: h.Coord.Lng},
			County:       fr.County,
			DistanceFeet: h.DistanceFeet,
			Frames:       groupFrames(h.ID),
		})
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleNeighborhood(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "invalid_request_error", "use POST", reqID)
		return
	}
	var req NeighborhoodRequest
	if herr := wire.DecodeBody(w, r, 1<<20, &req); herr != nil {
		herr.Write(w, reqID)
		return
	}
	rt, ok := s.routes[req.Backend]
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown_backend",
			fmt.Sprintf("unknown backend %q (serving: %v)", req.Backend, s.names), reqID)
		return
	}
	if s.frames == nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "this gateway serves no dataset; spatial queries are unavailable", reqID)
		return
	}
	if req.Lat == nil || req.Lng == nil {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", "lat and lng are required", reqID)
		return
	}
	if req.RadiusFeet <= 0 {
		wire.WriteError(w, http.StatusBadRequest, "invalid_request_error", fmt.Sprintf("radius_feet must be positive, got %v", req.RadiusFeet), reqID)
		return
	}
	opts, herr := requestOptions(&ClassifyRequest{
		Indicators:  req.Indicators,
		Language:    req.Language,
		Mode:        req.Mode,
		Temperature: req.Temperature,
		TopP:        req.TopP,
		Nonce:       req.Nonce,
	})
	if herr != nil {
		herr.Write(w, reqID)
		return
	}
	center := geo.Coordinate{Lat: *req.Lat, Lng: *req.Lng}
	hits := s.geoIndex().Radius(center, req.RadiusFeet)
	maxCoords := req.MaxCoordinates
	if maxCoords <= 0 {
		maxCoords = defaultMaxCoordinates
	}
	truncated := false
	if len(hits) > maxCoords {
		// Radius results arrive sorted by (distance, ID), so truncation
		// keeps the nearest coordinates.
		hits = hits[:maxCoords]
		truncated = true
	}

	rt.met.request()
	// One admission slot covers the whole sweep: a neighborhood request
	// is one unit of queue occupancy, however many frames it fans into.
	select {
	case rt.admit <- struct{}{}:
	default:
		rt.met.shedOne()
		wire.Shed(w, http.StatusServiceUnavailable, "overloaded", fmt.Sprintf("backend %q queue full (%d in flight)", rt.name, cap(rt.admit)), reqID, s.cfg.RetryAfterSeconds)
		return
	}
	defer func() { <-rt.admit }()

	start := time.Now()
	size := rt.caps.RenderSize
	if size == 0 {
		size = s.cfg.DefaultRenderSize
	}
	locations, err := s.classifyGroups(r.Context(), rt, hits, size, opts)
	if err != nil {
		rt.met.failOne()
		if r.Context().Err() != nil {
			return
		}
		if s.baseCtx.Err() != nil {
			wire.Shed(w, http.StatusServiceUnavailable, "overloaded", "server is shutting down", reqID, s.cfg.RetryAfterSeconds)
			return
		}
		wire.WriteError(w, http.StatusInternalServerError, "backend_error", err.Error(), reqID)
		return
	}
	counts := make(map[string]int, len(opts.Indicators))
	for _, loc := range locations {
		for _, name := range loc.Present {
			counts[name]++
		}
	}
	rt.met.okOne(time.Since(start))
	wire.WriteJSON(w, http.StatusOK, NeighborhoodResponse{
		Backend:    rt.name,
		Query:      WireCoordinate{Lat: center.Lat, Lng: center.Lng},
		RadiusFeet: req.RadiusFeet,
		Truncated:  truncated,
		Locations:  locations,
		Counts:     counts,
		RequestID:  reqID,
	})
}

// classifyGroups classifies every frame of every hit coordinate through
// the route's coalescer (all frames enqueue concurrently, so they
// co-batch) and fuses each coordinate's headings with any-vote fusion —
// an indicator is present at a coordinate when any of its four headings
// shows it, the same rule as ensemble.FuseAny. Results keep the hits'
// (distance, ID) order. Frames answered by the LRU skip the backend.
func (s *Server) classifyGroups(ctx context.Context, rt *route, hits []geoindex.Result, size int, opts backend.Options) ([]LocationResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	frames := s.frames.Study().Frames
	answers := make([][][]bool, len(hits)) // [hit][heading]answer vector
	errs := make([]error, len(hits))
	var wg sync.WaitGroup
	for i, h := range hits {
		answers[i] = make([][]bool, framesPerCoordinate)
		for j, idx := range groupFrames(h.ID) {
			wg.Add(1)
			go func(i, j, idx int) {
				defer wg.Done()
				ans, err := s.classifyFrameCached(ctx, rt, idx, size, opts)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				answers[i][j] = ans
			}(i, j, idx)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]LocationResult, len(hits))
	for i, h := range hits {
		present := make([]string, 0, len(opts.Indicators))
		for q, ind := range opts.Indicators {
			any := false
			for j := range answers[i] {
				any = any || answers[i][j][q]
			}
			if any {
				present = append(present, ind.String())
			}
		}
		out[i] = LocationResult{
			Coordinate:   WireCoordinate{Lat: h.Coord.Lat, Lng: h.Coord.Lng},
			County:       frames[h.ID*framesPerCoordinate].County,
			DistanceFeet: h.DistanceFeet,
			Present:      present,
		}
	}
	return out, nil
}

// classifyFrameCached answers one dataset frame via the shared LRU or,
// on a miss, the route's coalescer — the same key scheme as
// /v1/classify, so the two endpoints share cached answers.
func (s *Server) classifyFrameCached(ctx context.Context, rt *route, idx, size int, opts backend.Options) ([]bool, error) {
	ex, err := s.frames.Example(idx, size)
	if err != nil {
		return nil, err
	}
	fk := fmt.Sprintf("idx:%d@%d", idx, size)
	key := ShardKey(rt.name, rt.caps.Quantized, opts, fk)
	if s.results != nil {
		if ans, ok := s.results.get(key); ok {
			rt.met.cacheHit()
			return ans, nil
		}
	}
	res, err := rt.enqueue(ctx, fk, backend.Item{ID: ex.ID, Image: ex.Image}, opts)
	if err != nil {
		return nil, err
	}
	if s.results != nil {
		s.results.add(key, res.answers)
	}
	return res.answers, nil
}
