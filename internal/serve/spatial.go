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
// /v1/neighborhood shares the classify path: the same route lookup,
// admission step (the whole request takes one slot) and failure writer,
// and every frame is answered by route.answer, the LRU and coalescer
// /v1/classify uses (a frame classified by one endpoint is a cache hit
// for the other).

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

// NeighborhoodBodyLimit bounds a /v1/neighborhood request body, at the
// gateway and at the fleet router alike: a body over it is a 413.
const NeighborhoodBodyLimit = 1 << 20

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
	if herr := wire.DecodeBody(w, r, NeighborhoodBodyLimit, &req); herr != nil {
		herr.Write(w, reqID)
		return
	}
	rt, herr := s.lookup(req.Backend)
	if herr != nil {
		herr.Write(w, reqID)
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
	opts, herr := req.options()
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
	// One admission slot covers the whole sweep: a neighborhood request
	// is one unit of queue occupancy, however many frames it fans into.
	if !rt.admit(w, reqID) {
		return
	}
	defer rt.release()

	start := time.Now()
	locations, err := s.classifyGroups(r.Context(), rt, hits, opts)
	if err != nil {
		rt.fail(w, r, err, reqID)
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

// options lowers the request's knobs to backend options (lowerOptions),
// for the handler and NeighborhoodShardKey alike.
func (req *NeighborhoodRequest) options() (backend.Options, *wire.Error) {
	return lowerOptions(req.Indicators, req.Language, req.Mode, req.Temperature, req.TopP, req.Nonce)
}

// classifyGroups answers every frame of every hit coordinate through
// route.answer (all frames enqueue concurrently, so they co-batch) and
// fuses each coordinate's headings with any-vote fusion — an indicator
// is present at a coordinate when any of its four headings shows it,
// the same rule as ensemble.FuseAny. Results keep the hits' (distance,
// ID) order. The first frame to fail cancels the rest and is the error
// returned, so a backend failure is never masked by the cancellation
// it caused.
func (s *Server) classifyGroups(ctx context.Context, rt *route, hits []geoindex.Result, opts backend.Options) ([]LocationResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	frames := s.frames.Study().Frames
	answers := make([][][]bool, len(hits)) // [hit][heading]answer vector
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		failErr  error
	)
	for i, h := range hits {
		answers[i] = make([][]bool, framesPerCoordinate)
		for j, idx := range groupFrames(h.ID) {
			wg.Add(1)
			go func(i, j, idx int) {
				defer wg.Done()
				fr, err := rt.indexFrame(idx)
				var res callResult
				if err == nil {
					res, err = rt.answer(ctx, &fr, opts)
				}
				if err != nil {
					failOnce.Do(func() {
						failErr = err
						cancel()
					})
					return
				}
				answers[i][j] = res.answers
			}(i, j, idx)
		}
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
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
