// Black-box tests for the fleet router: every assertion goes through
// the wire against real serve.Server replicas, mirroring the gateway's
// own blackbox suite. The load-bearing property is bit-identity — a
// key's response must be byte-equal (modulo request IDs and cache
// telemetry) whether its ring owner serves it or a failover successor
// does — because that is what makes replica loss invisible to clients.
package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/fleet"
	"nbhd/internal/llmclient"
	"nbhd/internal/serve"
)

// fakeBackend answers deterministically from the frame ID and indicator
// position alone, so identical requests must produce identical answers
// on every replica — the ground truth the failover tests compare
// against.
type fakeBackend struct {
	name  string
	delay time.Duration

	mu      sync.Mutex
	batches int
}

func (f *fakeBackend) Name() string                       { return f.name }
func (f *fakeBackend) Capabilities() backend.Capabilities { return backend.Capabilities{} }

func fakeAnswer(id string, k int) bool { return (len(id)+k)%2 == 0 }

func (f *fakeBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return backend.BatchResult{}, ctx.Err()
		}
	}
	f.mu.Lock()
	f.batches++
	f.mu.Unlock()
	answers := make([][]bool, len(req.Items))
	for i, it := range req.Items {
		ans := make([]bool, len(req.Options.Indicators))
		for k := range req.Options.Indicators {
			ans[k] = fakeAnswer(it.ID, k)
		}
		answers[i] = ans
	}
	return backend.BatchResult{Answers: answers}, nil
}

// testFleet is a supervised in-process fleet behind an httptest router.
type testFleet struct {
	sup    *fleet.Supervisor
	router *fleet.Router
	ts     *httptest.Server
	cache  *dataset.RenderCache
}

// newTestFleet boots n local replicas over one shared render cache,
// each with its own deterministic fake backend, and mounts a router in
// front. The huge default health-poll interval keeps the supervisor's
// background eviction out of the way so tests exercise the router's
// per-request failover in isolation.
func newTestFleet(t *testing.T, n int, gw serve.Config, pollMS int, delay time.Duration) *testFleet {
	return newTestFleetCfg(t, fleet.Config{
		Replicas:     n,
		Gateway:      gw,
		HealthPollMS: pollMS,
	}, delay)
}

// newTestFleetCfg is newTestFleet with the whole fleet config exposed
// (spill factor, failover policy, ...).
func newTestFleetCfg(t *testing.T, cfg fleet.Config, delay time.Duration) *testFleet {
	t.Helper()
	study, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 8, Seed: 7})
	if err != nil {
		t.Fatalf("BuildStudy: %v", err)
	}
	cache := dataset.NewRenderCache(study)
	gw := cfg.Gateway
	spawn := func(ctx context.Context, idx int, id string) (fleet.Replica, error) {
		srv, err := serve.New(ctx, gw, serve.Options{
			Frames:   cache,
			Backends: map[string]backend.Backend{"fake": &fakeBackend{name: "fake", delay: delay}},
		})
		if err != nil {
			return nil, err
		}
		return fleet.NewLocalReplica(id, srv)
	}
	sup := fleet.NewSupervisor(cfg, spawn)
	if err := sup.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	router := sup.Router(fleet.RouterOptions{QuantizedRoutes: map[string]bool{"fake": false}})
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = sup.Close()
	})
	return &testFleet{sup: sup, router: router, ts: ts, cache: cache}
}

// classifyResult is the stable part of a classify response: everything
// except request IDs and cache/batch telemetry, which legitimately vary
// across replicas and repeat requests.
type classifyResult struct {
	Backend    string
	Frame      string
	Indicators []string
	Answers    []bool
}

// classifyFrame posts one coordinate-addressed classify through the
// router and returns the stable response, the serving replica, and the
// failover header ("" when the owner served).
func (tf *testFleet) classifyFrame(t *testing.T, idx int) (classifyResult, string, string) {
	t.Helper()
	body := fmt.Sprintf(`{"backend": "fake", "frame": {"index": %d}}`, idx)
	resp, err := http.Post(tf.ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/classify frame %d: %v", idx, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame %d: status %d", idx, resp.StatusCode)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("frame %d: decode: %v", idx, err)
	}
	replica := resp.Header.Get("X-Fleet-Replica")
	if replica == "" {
		t.Fatalf("frame %d: response missing X-Fleet-Replica", idx)
	}
	return classifyResult{
		Backend:    cr.Backend,
		Frame:      cr.Frame,
		Indicators: cr.Indicators,
		Answers:    cr.Answers,
	}, replica, resp.Header.Get("X-Fleet-Failover")
}

// TestFleetFailoverBitIdentical is the satellite-3 black-box check: a
// frame's response is identical whether served by its ring owner, by a
// failover successor after the owner dies unannounced, or by the
// post-eviction owner once the ring catches up.
func TestFleetFailoverBitIdentical(t *testing.T) {
	tf := newTestFleet(t, 3, serve.Config{CacheSize: -1}, 600000, 0)
	const frames = 24

	base := make([]classifyResult, frames)
	owner := make([]string, frames)
	for i := 0; i < frames; i++ {
		res, rep, fo := tf.classifyFrame(t, i)
		if fo != "" {
			t.Fatalf("frame %d: unexpected failover %q with all replicas healthy", i, fo)
		}
		base[i] = res
		owner[i] = rep
	}

	// Kill a replica that owns at least one frame, without warning the
	// ring — the router's per-request failover has to absorb it.
	victim := owner[0]
	if err := tf.sup.KillReplica(context.Background(), victim); err != nil {
		t.Fatalf("KillReplica(%s): %v", victim, err)
	}

	for i := 0; i < frames; i++ {
		res, rep, fo := tf.classifyFrame(t, i)
		if !reflect.DeepEqual(res, base[i]) {
			t.Fatalf("frame %d: post-kill response diverged:\n got %+v\nwant %+v", i, res, base[i])
		}
		if owner[i] == victim {
			if fo == "" {
				t.Fatalf("frame %d: owner %s is dead but no X-Fleet-Failover set (served by %s)", i, victim, rep)
			}
			if rep == victim {
				t.Fatalf("frame %d: served by dead replica %s", i, victim)
			}
		} else {
			if fo != "" {
				t.Fatalf("frame %d: owner %s is alive but failover %q fired", i, owner[i], fo)
			}
			if rep != owner[i] {
				t.Fatalf("frame %d: owner changed %s -> %s without a ring change", i, owner[i], rep)
			}
		}
	}

	// Once the ring evicts the victim (here: explicitly, standing in for
	// the supervisor's poll), the successor becomes the owner — same
	// bytes, no failover header, no per-request probe of the corpse.
	tf.sup.Ring().Remove(victim)
	for i := 0; i < frames; i++ {
		res, rep, fo := tf.classifyFrame(t, i)
		if !reflect.DeepEqual(res, base[i]) {
			t.Fatalf("frame %d: post-eviction response diverged:\n got %+v\nwant %+v", i, res, base[i])
		}
		if fo != "" {
			t.Fatalf("frame %d: failover %q after eviction; successor should own the key now", i, fo)
		}
		if rep == victim {
			t.Fatalf("frame %d: evicted replica %s still serving", i, victim)
		}
	}
	if m := tf.router.Metrics(); m.Failovers == 0 {
		t.Fatalf("router metrics recorded no failovers after a replica kill: %+v", m)
	}
}

// TestFleetKillUnderLoadDropsNo200s kills a replica unannounced while
// concurrent clients replay the corpus: every request must still end in
// a 200 with its pre-kill answers, the health poll must then evict the
// victim, and the router must have covered the gap by failover. The
// backend's few milliseconds of service time keep requests in flight at
// the moment of the kill, and the replay runs on until the victim has
// left the ring, so requests keep arriving while the ring still lists
// a dead replica.
func TestFleetKillUnderLoadDropsNo200s(t *testing.T) {
	tf := newTestFleet(t, 3, serve.Config{CacheSize: -1}, 100, 3*time.Millisecond)
	const (
		frames   = 24
		clients  = 16
		requests = 8 * frames // the replay's minimum length
		halfway  = requests / 2
	)
	base := make([]classifyResult, frames)
	owner := make([]string, frames)
	for i := range base {
		base[i], owner[i], _ = tf.classifyFrame(t, i)
	}
	victim := owner[0]
	inRing := func() bool {
		for _, id := range tf.sup.Ring().Members() {
			if id == victim {
				return true
			}
		}
		return false
	}

	// routerSheds counts 503s the router wrote itself (no replica
	// header): with two live successors, failover must absorb the kill
	// rather than surface it to clients.
	var routerSheds atomic.Int64
	// post sends one classify, retrying 503s per their Retry-After as a
	// well-behaved client does; any other non-200 is an error.
	post := func(idx int) (classifyResult, string, error) {
		body := fmt.Sprintf(`{"backend": "fake", "frame": {"index": %d}}`, idx)
		for attempt := 0; ; attempt++ {
			resp, err := http.Post(tf.ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
			if err != nil {
				return classifyResult{}, "", err
			}
			if resp.StatusCode == http.StatusServiceUnavailable && attempt < 8 {
				_ = resp.Body.Close()
				if resp.Header.Get("X-Fleet-Replica") == "" {
					routerSheds.Add(1)
				}
				delay, ok := llmclient.ParseRetryAfter(resp.Header.Get("Retry-After"))
				if !ok {
					delay = 50 * time.Millisecond
				}
				time.Sleep(delay)
				continue
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != http.StatusOK {
				return classifyResult{}, "", fmt.Errorf("status %d (attempt %d)", resp.StatusCode, attempt+1)
			}
			var cr serve.ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				return classifyResult{}, "", err
			}
			return classifyResult{Backend: cr.Backend, Frame: cr.Frame, Indicators: cr.Indicators, Answers: cr.Answers},
				resp.Header.Get("X-Fleet-Replica"), nil
		}
	}

	var next atomic.Int64
	killed := make(chan error, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i == halfway {
					go func() { killed <- tf.sup.KillReplica(context.Background(), victim) }()
				}
				frame := i % frames
				res, _, err := post(frame)
				if err != nil {
					t.Errorf("request %d (frame %d): %v", i, frame, err)
					return
				}
				if !reflect.DeepEqual(res, base[frame]) {
					t.Errorf("request %d (frame %d): answers diverged from pre-kill:\n got %+v\nwant %+v", i, frame, res, base[frame])
					return
				}
			}
		}()
	}
	// Replay until the kill has returned, the poll loop has evicted the
	// victim, and the minimum request count is reached.
	deadline := time.Now().Add(10 * time.Second)
	var killErr error
	select {
	case killErr = <-killed:
	case <-time.After(time.Until(deadline)):
		killErr = fmt.Errorf("no return within 10s")
	}
	for (inRing() || next.Load() < requests) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if killErr != nil {
		t.Fatalf("KillReplica(%s): %v", victim, killErr)
	}
	if inRing() {
		t.Fatalf("health poll never evicted killed replica %s", victim)
	}
	if t.Failed() {
		t.FailNow()
	}
	if n := routerSheds.Load(); n > 0 {
		t.Fatalf("router answered %d requests with its own 503 while live successors were in the ring", n)
	}

	for i := 0; i < frames; i++ {
		res, rep, err := post(i)
		if err != nil {
			t.Fatalf("frame %d after eviction: %v", i, err)
		}
		if rep == victim {
			t.Fatalf("frame %d served by evicted replica %s", i, victim)
		}
		if !reflect.DeepEqual(res, base[i]) {
			t.Fatalf("frame %d after eviction: answers diverged:\n got %+v\nwant %+v", i, res, base[i])
		}
	}
	if m := tf.router.Metrics(); m.Failovers == 0 {
		t.Fatalf("router recorded no failovers across the kill: %+v", m)
	}
}

// TestFleetRejectsOversizedBody: a body over the router's limit is a
// 413 at the router, never truncated into a "malformed JSON" 400 or
// forwarded.
func TestFleetRejectsOversizedBody(t *testing.T) {
	tf := newTestFleet(t, 2, serve.Config{MaxImageBytes: 2048}, 600000, 0)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed classify", "/v1/classify", `{"backend": "fake"`, http.StatusBadRequest},
		{"classify body over the limit", "/v1/classify",
			`{"backend":"fake","frame":{"index":0},"pad":"` + strings.Repeat("x", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"neighborhood body over the limit", "/v1/neighborhood",
			`{"backend":"fake","lat":1,"lng":2,"radius_feet":10,"pad":"` + strings.Repeat("x", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(tf.ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var eb struct {
				Error struct {
					Type string `json:"type"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Type != "invalid_request_error" {
				t.Fatalf("error body type %q (decode err %v), want invalid_request_error", eb.Error.Type, err)
			}
		})
	}
	if m := tf.router.Metrics(); len(m.Forwarded) != 0 {
		t.Fatalf("rejected bodies reached a replica: forwarded %v", m.Forwarded)
	}
}

// TestFleetShardAffinityIsCacheAffinity: the same key always routes to
// the same replica, so a repeat request hits that replica's LRU — the
// property the whole ring keying scheme exists to preserve.
func TestFleetShardAffinityIsCacheAffinity(t *testing.T) {
	tf := newTestFleet(t, 3, serve.Config{}, 600000, 0)
	for idx := 0; idx < 8; idx++ {
		body := fmt.Sprintf(`{"backend": "fake", "frame": {"index": %d}}`, idx)
		var reps [2]string
		var cached [2]bool
		for pass := 0; pass < 2; pass++ {
			resp, err := http.Post(tf.ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			var cr serve.ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				t.Fatalf("decode: %v", err)
			}
			_ = resp.Body.Close()
			reps[pass] = resp.Header.Get("X-Fleet-Replica")
			cached[pass] = cr.Cached
		}
		if reps[0] != reps[1] {
			t.Fatalf("frame %d routed to %s then %s; shard affinity broken", idx, reps[0], reps[1])
		}
		if cached[0] || !cached[1] {
			t.Fatalf("frame %d cache flags = %v, want [false true]: repeat must hit the owner's LRU", idx, cached)
		}
	}
}

// TestFleetShedPropagatesUnchanged: a replica's 503 + Retry-After is
// backpressure, not failure — the router must relay it verbatim and
// never bounce the request to a sibling replica.
func TestFleetShedPropagatesUnchanged(t *testing.T) {
	// One slot, one queue seat, no cache: concurrent same-key requests
	// guarantee sheds at the owning replica while the sibling sits idle.
	tf := newTestFleet(t, 2, serve.Config{
		MaxBatch:    1,
		MaxDispatch: 1,
		MaxQueue:    1,
		CacheSize:   -1,
	}, 600000, 300*time.Millisecond)

	const concurrent = 6
	body := `{"backend": "fake", "frame": {"index": 0}}`
	type result struct {
		status   int
		retry    string
		failover string
		replica  string
		errType  string
	}
	results := make([]result, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(tf.ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			res := result{
				status:   resp.StatusCode,
				retry:    resp.Header.Get("Retry-After"),
				failover: resp.Header.Get("X-Fleet-Failover"),
				replica:  resp.Header.Get("X-Fleet-Replica"),
			}
			if res.status != http.StatusOK {
				var eb struct {
					Error struct {
						Type string `json:"type"`
					} `json:"error"`
				}
				_ = json.NewDecoder(resp.Body).Decode(&eb)
				res.errType = eb.Error.Type
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	var oks, sheds int
	var okReplica string
	for _, r := range results {
		switch r.status {
		case http.StatusOK:
			oks++
			okReplica = r.replica
		case http.StatusServiceUnavailable:
			sheds++
			if r.retry == "" {
				t.Errorf("shed lost its Retry-After header: %+v", r)
			}
			if r.failover != "" {
				t.Errorf("shed was retried on another replica (failover %q): sheds are backpressure, not failure", r.failover)
			}
			if r.errType != "overloaded" {
				t.Errorf("shed error type %q, want %q", r.errType, "overloaded")
			}
		default:
			t.Errorf("unexpected status %d: %+v", r.status, r)
		}
	}
	if oks == 0 || sheds == 0 {
		t.Fatalf("want a mix of 200s and 503 sheds, got %d OK / %d shed", oks, sheds)
	}
	for _, r := range results {
		if r.status == http.StatusServiceUnavailable && r.replica != okReplica {
			t.Errorf("shed came from %s but the key's owner is %s: same key must hit one replica", r.replica, okReplica)
		}
	}
}

// TestFleetEmptyRing503: with no ring members the router sheds at its
// own layer, llmserve-shaped, with a Retry-After.
func TestFleetEmptyRing503(t *testing.T) {
	router := fleet.NewRouter(fleet.NewRing(0),
		func(string) (string, bool) { return "", false },
		fleet.Config{}, fleet.RouterOptions{})
	ts := httptest.NewServer(router.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"backend": "fake", "frame": {"index": 0}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("router-origin 503 missing Retry-After")
	}
	var eb struct {
		Error struct {
			Type      string `json:"type"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if eb.Error.Type != "overloaded" || eb.Error.RequestID == "" {
		t.Fatalf("error body = %+v, want overloaded with a request_id", eb.Error)
	}

	// /healthz reports the empty ring as degraded.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer func() { _ = hr.Body.Close() }()
	var h fleet.Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("empty-ring health = %d %q, want 503 degraded", hr.StatusCode, h.Status)
	}
}

// TestFleetSpatialRoutes: /v1/nearest and /v1/neighborhood route
// through the fleet and match a direct request to the serving replica
// (request IDs aside).
func TestFleetSpatialRoutes(t *testing.T) {
	tf := newTestFleet(t, 2, serve.Config{}, 600000, 0)
	frames := tf.cache.Study().Frames
	lat := frames[0].Scene.Point.Coordinate.Lat
	lng := frames[0].Scene.Point.Coordinate.Lng

	nearestURL := fmt.Sprintf("/v1/nearest?lat=%v&lng=%v&k=3", lat, lng)
	resp, err := http.Get(tf.ts.URL + nearestURL)
	if err != nil {
		t.Fatalf("GET nearest: %v", err)
	}
	replica := resp.Header.Get("X-Fleet-Replica")
	var viaFleet serve.NearestResponse
	if err := json.NewDecoder(resp.Body).Decode(&viaFleet); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(viaFleet.Results) != 3 || replica == "" {
		t.Fatalf("nearest via fleet: status %d, %d results, replica %q", resp.StatusCode, len(viaFleet.Results), replica)
	}
	url, ok := tf.sup.URLOf(replica)
	if !ok {
		t.Fatalf("URLOf(%s) unknown", replica)
	}
	direct, err := http.Get(url + nearestURL)
	if err != nil {
		t.Fatalf("GET nearest direct: %v", err)
	}
	var viaReplica serve.NearestResponse
	if err := json.NewDecoder(direct.Body).Decode(&viaReplica); err != nil {
		t.Fatal(err)
	}
	_ = direct.Body.Close()
	viaFleet.RequestID, viaReplica.RequestID = "", ""
	if !reflect.DeepEqual(viaFleet, viaReplica) {
		t.Fatalf("nearest differs via fleet vs direct:\n fleet  %+v\n direct %+v", viaFleet, viaReplica)
	}

	nb := fmt.Sprintf(`{"backend": "fake", "lat": %v, "lng": %v, "radius_feet": 2000}`, lat, lng)
	var reps [2]string
	var bodies [2]serve.NeighborhoodResponse
	for pass := 0; pass < 2; pass++ {
		resp, err := http.Post(tf.ts.URL+"/v1/neighborhood", "application/json", strings.NewReader(nb))
		if err != nil {
			t.Fatalf("POST neighborhood: %v", err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&bodies[pass]); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(bodies[pass].Locations) == 0 {
			t.Fatalf("neighborhood pass %d: status %d, %d locations", pass, resp.StatusCode, len(bodies[pass].Locations))
		}
		reps[pass] = resp.Header.Get("X-Fleet-Replica")
	}
	if reps[0] != reps[1] || reps[0] == "" {
		t.Fatalf("same neighborhood key routed to %q then %q", reps[0], reps[1])
	}
	bodies[0].RequestID, bodies[1].RequestID = "", ""
	if !reflect.DeepEqual(bodies[0], bodies[1]) {
		t.Fatalf("repeat neighborhood diverged:\n first  %+v\n second %+v", bodies[0], bodies[1])
	}
}

// TestFleetRouterMetricsAndDrain: /metricsz accounts for every routed
// request by replica, and Drain flips /healthz for upstream balancers.
func TestFleetRouterMetricsAndDrain(t *testing.T) {
	tf := newTestFleet(t, 2, serve.Config{}, 600000, 0)
	const frames = 10
	for i := 0; i < frames; i++ {
		tf.classifyFrame(t, i)
	}
	resp, err := http.Get(tf.ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	var m fleet.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if m.Requests != frames {
		t.Fatalf("metrics requests = %d, want %d", m.Requests, frames)
	}
	var forwarded int64
	for _, n := range m.Forwarded {
		forwarded += n
	}
	if forwarded != frames {
		t.Fatalf("per-replica forwarded counts sum to %d, want %d: %v", forwarded, frames, m.Forwarded)
	}
	if len(m.RingReplicas) != 2 || m.RingGeneration != 2 {
		t.Fatalf("ring state = %v gen %d, want 2 members gen 2", m.RingReplicas, m.RingGeneration)
	}

	tf.router.Drain()
	hr, err := http.Get(tf.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer func() { _ = hr.Body.Close() }()
	var h fleet.Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("post-drain health = %d %q, want 503 draining", hr.StatusCode, h.Status)
	}
}

// TestFleetBoundedLoadSpill: with SpillFactor set, a flood of one hot
// key overflows the owner's in-flight bound and the router serves the
// overflow from the ring successor (bit-identically); at idle the same
// key routes straight back to its owner with no spill marker.
func TestFleetBoundedLoadSpill(t *testing.T) {
	gw := serve.Config{MaxBatch: 1, MaxDispatch: 1, MaxQueue: 64, CacheSize: -1}
	tf := newTestFleetCfg(t, fleet.Config{
		Replicas:     2,
		Gateway:      gw,
		HealthPollMS: 3600000,
		SpillFactor:  1.25,
	}, 120*time.Millisecond)

	// At idle the owner serves, unspilled — affinity is untouched below
	// the bound.
	want, owner, _ := tf.classifyFrame(t, 0)
	for i := 0; i < 2; i++ {
		got, rep, _ := tf.classifyFrame(t, 0)
		if rep != owner {
			t.Fatalf("idle request %d served by %s, owner is %s", i, rep, owner)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("idle repeat diverged: %+v vs %+v", got, want)
		}
	}

	// Flood the one key. MaxBatch 1 + MaxDispatch 1 + a slow backend
	// queue requests at the owner, so router-side in-flight climbs past
	// the bound and later arrivals spill to the successor.
	const flood = 8
	type res struct {
		body    classifyResult
		replica string
		spill   string
		status  int
	}
	results := make([]res, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			body := `{"backend": "fake", "frame": {"index": 0}}`
			resp, err := http.Post(tf.ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("flood %d: %v", slot, err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			r := res{
				replica: resp.Header.Get("X-Fleet-Replica"),
				spill:   resp.Header.Get("X-Fleet-Spill"),
				status:  resp.StatusCode,
			}
			var cr serve.ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				t.Errorf("flood %d: decode: %v", slot, err)
				return
			}
			r.body = classifyResult{Backend: cr.Backend, Frame: cr.Frame, Indicators: cr.Indicators, Answers: cr.Answers}
			results[slot] = r
		}(i)
		time.Sleep(10 * time.Millisecond) // ramp so in-flight climbs monotonically
	}
	wg.Wait()

	served := map[string]int{}
	spilled := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("flood %d: status %d", i, r.status)
		}
		if !reflect.DeepEqual(r.body, want) {
			t.Fatalf("flood %d (served by %s) diverged from the owner's answer", i, r.replica)
		}
		served[r.replica]++
		if r.spill != "" {
			if r.replica == owner {
				t.Fatalf("flood %d: spill marker on an owner-served response", i)
			}
			spilled++
		}
	}
	if len(served) < 2 {
		t.Fatalf("flood never spilled off the owner: %v", served)
	}
	if spilled == 0 {
		t.Fatal("no response carried X-Fleet-Spill")
	}
	if m := tf.router.Metrics(); m.LoadSpills == 0 {
		t.Fatalf("router metrics recorded no spills: %+v", m)
	}

	// Back at idle, the key snaps back to its owner.
	got, rep, _ := tf.classifyFrame(t, 0)
	if rep != owner || !reflect.DeepEqual(got, want) {
		t.Fatalf("post-flood request served by %s (owner %s)", rep, owner)
	}
}
