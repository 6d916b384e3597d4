// Black-box tests for the spatial endpoints, through the wire like the
// classify suite: /v1/nearest answers must match a linear distance scan
// over the corpus exactly, and /v1/neighborhood verdicts must equal the
// fake backend's answers fused with any-vote.
package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/geo"
	"nbhd/internal/scene"
	"nbhd/internal/serve"
	"nbhd/internal/wire"
)

func spatialGateway(t *testing.T, coords int) (*dataset.RenderCache, *httptestURL) {
	t.Helper()
	cache := studyCache(t, coords)
	fb := &fakeBackend{name: "fake", caps: backend.Capabilities{PreferredBatch: 8, RenderSize: 32}}
	_, ts := gateway(t, serve.Config{}, serve.Options{
		Frames:   cache,
		Backends: map[string]backend.Backend{"fake": fb},
	})
	return cache, &httptestURL{url: ts.URL}
}

// httptestURL keeps the helpers tidy.
type httptestURL struct{ url string }

func (u *httptestURL) getNearest(t *testing.T, query string) *http.Response {
	t.Helper()
	resp, err := http.Get(u.url + "/v1/nearest?" + query)
	if err != nil {
		t.Fatalf("GET /v1/nearest: %v", err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func (u *httptestURL) postNeighborhood(t *testing.T, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(u.url+"/v1/neighborhood", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/neighborhood: %v", err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestNearestMatchesLinearScan(t *testing.T) {
	cache, u := spatialGateway(t, 12)
	frames := cache.Study().Frames
	center := geo.Coordinate{Lat: frames[0].Scene.Point.Coordinate.Lat + 0.01, Lng: frames[0].Scene.Point.Coordinate.Lng - 0.01}
	const k = 5

	resp := u.getNearest(t, fmt.Sprintf("lat=%v&lng=%v&k=%d", center.Lat, center.Lng, k))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body serve.NearestResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != k {
		t.Fatalf("results = %d, want %d", len(body.Results), k)
	}

	// Reference: linear scan over coordinate groups, sorted by
	// (distance, group) — the index's documented order.
	type ref struct {
		g int
		d float64
	}
	var refs []ref
	for g := 0; g*4 < len(frames); g++ {
		refs = append(refs, ref{g, center.DistanceFeet(frames[g*4].Scene.Point.Coordinate)})
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].d != refs[b].d {
			return refs[a].d < refs[b].d
		}
		return refs[a].g < refs[b].g
	})
	for i, r := range body.Results {
		if r.DistanceFeet != refs[i].d {
			t.Fatalf("result %d distance = %v, linear scan says %v", i, r.DistanceFeet, refs[i].d)
		}
		wantFrames := []int{refs[i].g * 4, refs[i].g*4 + 1, refs[i].g*4 + 2, refs[i].g*4 + 3}
		if len(r.Frames) != 4 {
			t.Fatalf("result %d has %d frames", i, len(r.Frames))
		}
		for j := range wantFrames {
			if r.Frames[j] != wantFrames[j] {
				t.Fatalf("result %d frames = %v, want %v", i, r.Frames, wantFrames)
			}
		}
		if r.County == "" {
			t.Fatalf("result %d has empty county", i)
		}
	}
}

func TestNearestValidation(t *testing.T) {
	_, u := spatialGateway(t, 2)
	for _, q := range []string{"", "lat=1", "lat=x&lng=2", "lat=1&lng=2&k=0", "lat=1&lng=2&k=-3", "lat=1&lng=2&k=x"} {
		if resp := u.getNearest(t, q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
	// POST is not allowed.
	resp, err := http.Post(u.url+"/v1/nearest", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestNearestWithoutDataset(t *testing.T) {
	fb := &fakeBackend{name: "fake", caps: backend.Capabilities{PreferredBatch: 1}}
	_, ts := gateway(t, serve.Config{}, serve.Options{Backends: map[string]backend.Backend{"fake": fb}})
	resp, err := http.Get(ts.URL + "/v1/nearest?lat=1&lng=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestNeighborhoodFusesAnyVote(t *testing.T) {
	cache, u := spatialGateway(t, 6)
	frames := cache.Study().Frames
	center := frames[0].Scene.Point.Coordinate
	const radius = 50000.0

	resp := u.postNeighborhood(t, fmt.Sprintf(
		`{"backend":"fake","lat":%v,"lng":%v,"radius_feet":%v}`, center.Lat, center.Lng, radius))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body serve.NeighborhoodResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	// Reference: linear scan selection + any-vote fusion of the fake
	// backend's deterministic answers.
	inds := scene.Indicators()
	wantLocs := 0
	for g := 0; g*4 < len(frames); g++ {
		c := frames[g*4].Scene.Point.Coordinate
		if center.DistanceFeet(c) > radius {
			continue
		}
		wantLocs++
		var present []string
		for k, ind := range inds {
			any := false
			for j := 0; j < 4; j++ {
				any = any || fakeAnswer(frames[g*4+j].Scene.ID, k)
			}
			if any {
				present = append(present, ind.String())
			}
		}
		// Find this coordinate in the response.
		found := false
		for _, loc := range body.Locations {
			if loc.Coordinate.Lat == c.Lat && loc.Coordinate.Lng == c.Lng {
				found = true
				if fmt.Sprint(loc.Present) != fmt.Sprint(present) {
					t.Fatalf("group %d present = %v, want %v", g, loc.Present, present)
				}
			}
		}
		if !found {
			t.Fatalf("group %d (%.1f ft away) missing from response", g, center.DistanceFeet(c))
		}
	}
	if wantLocs == 0 {
		t.Fatal("test radius selects nothing; widen it")
	}
	if len(body.Locations) != wantLocs {
		t.Fatalf("locations = %d, linear scan says %d", len(body.Locations), wantLocs)
	}
	// Locations arrive nearest first.
	for i := 1; i < len(body.Locations); i++ {
		if body.Locations[i].DistanceFeet < body.Locations[i-1].DistanceFeet {
			t.Fatal("locations are not sorted by distance")
		}
	}
	// Counts aggregate the per-location presences.
	recount := make(map[string]int)
	for _, loc := range body.Locations {
		for _, name := range loc.Present {
			recount[name]++
		}
	}
	if len(recount) != len(body.Counts) {
		t.Fatalf("counts = %v, recount = %v", body.Counts, recount)
	}
	for name, n := range recount {
		if body.Counts[name] != n {
			t.Fatalf("counts[%s] = %d, want %d", name, body.Counts[name], n)
		}
	}
}

func TestNeighborhoodTruncates(t *testing.T) {
	_, u := spatialGateway(t, 8)
	resp := u.postNeighborhood(t, `{"backend":"fake","lat":35.4,"lng":-79.2,"radius_feet":1e9,"max_coordinates":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body serve.NeighborhoodResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Truncated {
		t.Fatal("Truncated not set")
	}
	if len(body.Locations) != 3 {
		t.Fatalf("locations = %d, want 3", len(body.Locations))
	}
}

func TestNeighborhoodValidation(t *testing.T) {
	_, u := spatialGateway(t, 2)
	cases := []struct {
		body string
		want int
	}{
		{`{"backend":"nope","lat":1,"lng":2,"radius_feet":10}`, http.StatusNotFound},
		{`{"backend":"fake","lng":2,"radius_feet":10}`, http.StatusBadRequest},
		{`{"backend":"fake","lat":1,"radius_feet":10}`, http.StatusBadRequest},
		{`{"backend":"fake","lat":1,"lng":2}`, http.StatusBadRequest},
		{`{"backend":"fake","lat":1,"lng":2,"radius_feet":-5}`, http.StatusBadRequest},
		{`{"backend":"fake","lat":1,"lng":2,"radius_feet":10,"language":"klingon"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		// Over the 1 MiB body limit: a 413, not a truncated-JSON 400.
		{`{"backend":"fake","lat":1,"lng":2,"radius_feet":10,"pad":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if resp := u.postNeighborhood(t, c.body); resp.StatusCode != c.want {
			t.Errorf("body %.80q: status = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestNeighborhoodSharesClassifyCache(t *testing.T) {
	cache, u := spatialGateway(t, 2)
	frames := cache.Study().Frames
	center := frames[0].Scene.Point.Coordinate

	// First sweep warms the LRU for every frame it touches.
	resp := u.postNeighborhood(t, fmt.Sprintf(
		`{"backend":"fake","lat":%v,"lng":%v,"radius_feet":1e9}`, center.Lat, center.Lng))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// A classify for frame 0 must now be a cache hit.
	cresp := postClassify(t, u.url, `{"backend":"fake","frame":{"index":0}}`)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify status = %d", cresp.StatusCode)
	}
	var cbody serve.ClassifyResponse
	if err := json.NewDecoder(cresp.Body).Decode(&cbody); err != nil {
		t.Fatal(err)
	}
	if !cbody.Cached {
		t.Fatal("classify after neighborhood sweep was not a cache hit")
	}
}

// TestNeighborhoodBackendErrorKeepsRootCause: when the backend fails,
// a sweep's 500 names the backend's error, never the cancellation that
// failure sent to the sweep's other frames. Every request misses the
// LRU (distinct nonces) and fans into several batches.
func TestNeighborhoodBackendErrorKeepsRootCause(t *testing.T) {
	cache := studyCache(t, 12)
	fb := &fakeBackend{name: "fake", caps: backend.Capabilities{PreferredBatch: 4, RenderSize: 32}, err: errors.New("boom")}
	_, ts := gateway(t, serve.Config{}, serve.Options{
		Frames:   cache,
		Backends: map[string]backend.Backend{"fake": fb},
	})
	u := &httptestURL{url: ts.URL}
	center := cache.Study().Frames[0].Scene.Point.Coordinate
	for n := 1; n <= 50; n++ {
		resp := u.postNeighborhood(t, fmt.Sprintf(
			`{"backend":"fake","lat":%v,"lng":%v,"radius_feet":1e9,"nonce":%d}`, center.Lat, center.Lng, n))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500", n, resp.StatusCode)
		}
		var body wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Error.Type != "backend_error" || body.Error.Message != "serve: fake: boom" {
			t.Fatalf("request %d: error = %+v, want backend_error %q", n, body.Error, "serve: fake: boom")
		}
	}
}

// TestNeighborhoodCountsCacheHitsPerFrame: cache_hits counts frames
// answered from the LRU, so a repeated sweep adds one per frame while
// requests and ok count one per sweep.
func TestNeighborhoodCountsCacheHitsPerFrame(t *testing.T) {
	cache, u := spatialGateway(t, 2)
	frames := cache.Study().Frames
	center := frames[0].Scene.Point.Coordinate
	body := fmt.Sprintf(`{"backend":"fake","lat":%v,"lng":%v,"radius_feet":1e9}`, center.Lat, center.Lng)
	for range 2 {
		if resp := u.postNeighborhood(t, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(u.url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var snap serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	rm := snap.Routes["fake"]
	if rm.Requests != 2 || rm.OK != 2 || rm.CacheHits != int64(len(frames)) {
		t.Fatalf("requests %d, ok %d, cache_hits %d; want 2, 2, %d (one per frame of the second sweep)",
			rm.Requests, rm.OK, rm.CacheHits, len(frames))
	}
}
