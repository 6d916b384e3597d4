// Black-box tests for the gateway's public HTTP API, geobed-style:
// every assertion goes through the wire — JSON bodies, status codes,
// headers — never through package internals. If these pass, any HTTP
// client (including llmclient's retry loop) interoperates with the
// gateway.
package serve_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/llmclient"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/serve"
)

// fakeBackend is a deterministic injectable backend: answers depend
// only on the frame ID and indicator position, so any path through the
// gateway must reproduce them exactly.
type fakeBackend struct {
	name  string
	caps  backend.Capabilities
	delay time.Duration
	err   error

	mu      sync.Mutex
	batches []int
}

func (f *fakeBackend) Name() string                       { return f.name }
func (f *fakeBackend) Capabilities() backend.Capabilities { return f.caps }

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
	f.batches = append(f.batches, len(req.Items))
	f.mu.Unlock()
	if f.err != nil {
		return backend.BatchResult{}, f.err
	}
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

func (f *fakeBackend) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

// studyCache builds a small corpus and render cache for
// coordinate-addressed requests.
func studyCache(t *testing.T, coords int) *dataset.RenderCache {
	t.Helper()
	study, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: coords, Seed: 7})
	if err != nil {
		t.Fatalf("BuildStudy: %v", err)
	}
	return dataset.NewRenderCache(study)
}

// gateway boots a server over httptest and tears it down with the test.
func gateway(t *testing.T, cfg serve.Config, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(context.Background(), cfg, opts)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

func postClassify(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/classify: %v", err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

// errorType decodes the llmserve-shaped error body.
func errorType(t *testing.T, resp *http.Response) string {
	t.Helper()
	var body struct {
		Error struct {
			Message   string `json:"message"`
			Type      string `json:"type"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error.Message == "" {
		t.Fatalf("error body has no message")
	}
	if body.Error.RequestID == "" {
		t.Fatalf("error body has no request_id")
	}
	return body.Error.Type
}

func TestClassifyRejectsBadRequests(t *testing.T) {
	fb := &fakeBackend{name: "fake"}
	_, ts := gateway(t, serve.Config{MaxImageBytes: 2048}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"fake": fb},
	})

	bigPNG := base64.StdEncoding.EncodeToString(make([]byte, 4096))
	// A decompression bomb: compresses to a few hundred bytes (under
	// the payload cap) but declares 100x100 pixels — 120 KB decoded,
	// far over the 2 KiB MaxImageBytes below.
	var bombBuf bytes.Buffer
	if err := render.MustNewImage(100, 100).EncodePNG(&bombBuf); err != nil {
		t.Fatalf("encode bomb png: %v", err)
	}
	bombPNG := base64.StdEncoding.EncodeToString(bombBuf.Bytes())
	cases := []struct {
		name       string
		body       string
		wantStatus int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"whitespace body", "   \n\t ", http.StatusBadRequest},
		{"malformed JSON", `{"backend": "fake"`, http.StatusBadRequest},
		{"JSON scalar", `42`, http.StatusBadRequest},
		{"unknown backend", `{"backend":"nope","frame":{"index":0}}`, http.StatusNotFound},
		{"missing backend", `{"frame":{"index":0}}`, http.StatusNotFound},
		{"no frame ref", `{"backend":"fake","frame":{}}`, http.StatusBadRequest},
		{"two frame refs", `{"backend":"fake","frame":{"index":0,"image_png_base64":"aGk="}}`, http.StatusBadRequest},
		{"index out of range", `{"backend":"fake","frame":{"index":99999}}`, http.StatusBadRequest},
		{"negative index", `{"backend":"fake","frame":{"index":-1}}`, http.StatusBadRequest},
		{"unknown indicator", `{"backend":"fake","frame":{"index":0},"indicators":["bogus"]}`, http.StatusBadRequest},
		{"unknown language", `{"backend":"fake","frame":{"index":0},"language":"klingon"}`, http.StatusBadRequest},
		{"unknown mode", `{"backend":"fake","frame":{"index":0},"mode":"sideways"}`, http.StatusBadRequest},
		{"invalid base64", `{"backend":"fake","frame":{"image_png_base64":"!!not-base64!!"}}`, http.StatusBadRequest},
		{"not a PNG", `{"backend":"fake","frame":{"image_png_base64":"aGVsbG8="}}`, http.StatusBadRequest},
		{"oversized image", `{"backend":"fake","frame":{"image_png_base64":"` + bigPNG + `"}}`, http.StatusRequestEntityTooLarge},
		{"png decompression bomb", `{"backend":"fake","frame":{"image_png_base64":"` + bombPNG + `"}}`, http.StatusRequestEntityTooLarge},
		{"bad f32 dims", `{"backend":"fake","frame":{"image_f32_base64":"AAAA","width":9,"height":9}}`, http.StatusBadRequest},
		// The body limit is 2*MaxImageBytes + 1 MiB; a body past it must
		// not be truncated into a "malformed JSON" 400.
		{"body over the limit", `{"backend":"fake","frame":{"index":0},"pad":"` + strings.Repeat("x", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postClassify(t, ts.URL, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			errorType(t, resp)
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/classify")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})

	// None of the rejects should have reached the backend.
	if got := fb.batchSizes(); len(got) != 0 {
		t.Fatalf("backend saw batches %v from rejected requests", got)
	}
}

func TestClassifyByCoordinateAndUpload(t *testing.T) {
	fb := &fakeBackend{name: "fake"}
	cache := studyCache(t, 2)
	_, ts := gateway(t, serve.Config{}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"fake": fb},
	})

	t.Run("coordinate", func(t *testing.T) {
		resp := postClassify(t, ts.URL, `{"backend":"fake","frame":{"index":3}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var out serve.ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Backend != "fake" || out.RequestID == "" {
			t.Fatalf("bad response metadata: %+v", out)
		}
		if len(out.Indicators) != scene.NumIndicators || len(out.Answers) != scene.NumIndicators {
			t.Fatalf("want %d indicators/answers, got %d/%d", scene.NumIndicators, len(out.Indicators), len(out.Answers))
		}
		for k, ans := range out.Answers {
			if want := fakeAnswer(out.Frame, k); ans != want {
				t.Fatalf("answer[%d] = %v, want %v (frame %s)", k, ans, want, out.Frame)
			}
		}
	})

	t.Run("f32 upload", func(t *testing.T) {
		ex, err := cache.Example(0, 32)
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		b64 := base64.StdEncoding.EncodeToString(ex.Image.EncodeRawF32())
		body := fmt.Sprintf(`{"backend":"fake","frame":{"image_f32_base64":%q,"width":32,"height":32},"indicators":["SW","SL"]}`, b64)
		resp := postClassify(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var out serve.ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Frame != "upload" {
			t.Fatalf("frame = %q, want upload", out.Frame)
		}
		if len(out.Answers) != 2 || out.Indicators[0] != "sidewalk" || out.Indicators[1] != "streetlight" {
			t.Fatalf("indicators/answers wrong: %+v", out)
		}
	})

	t.Run("png upload", func(t *testing.T) {
		var png bytes.Buffer
		if err := render.MustNewImage(16, 16).EncodePNG(&png); err != nil {
			t.Fatalf("encode png: %v", err)
		}
		body := fmt.Sprintf(`{"backend":"fake","frame":{"image_png_base64":%q}}`,
			base64.StdEncoding.EncodeToString(png.Bytes()))
		resp := postClassify(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
	})

	t.Run("coordinate without dataset", func(t *testing.T) {
		_, noDS := gateway(t, serve.Config{}, serve.Options{
			Backends: map[string]backend.Backend{"fake": &fakeBackend{name: "fake"}},
		})
		resp := postClassify(t, noDS.URL, `{"backend":"fake","frame":{"index":0}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
}

func TestResultCacheServesRepeats(t *testing.T) {
	fb := &fakeBackend{name: "fake"}
	_, ts := gateway(t, serve.Config{}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"fake": fb},
	})
	body := `{"backend":"fake","frame":{"index":1}}`

	var first, second serve.ClassifyResponse
	resp := postClassify(t, ts.URL, body)
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp = postClassify(t, ts.URL, body)
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if first.Cached {
		t.Fatalf("first request claims a cache hit")
	}
	if !second.Cached {
		t.Fatalf("repeat request missed the cache")
	}
	for k := range first.Answers {
		if first.Answers[k] != second.Answers[k] {
			t.Fatalf("cached answers diverge at %d", k)
		}
	}
	if got := fb.batchSizes(); len(got) != 1 {
		t.Fatalf("backend saw %d batches, want 1 (repeat should be cached)", len(got))
	}
	// A different options key must miss.
	resp = postClassify(t, ts.URL, `{"backend":"fake","frame":{"index":1},"nonce":9}`)
	var third serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&third); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if third.Cached {
		t.Fatalf("different nonce hit the cache")
	}
}

func TestShedWithRetryAfterInteroperatesWithLLMClient(t *testing.T) {
	// A one-deep queue over a slow backend must shed concurrent
	// arrivals with 503 + Retry-After that llmclient's parser accepts —
	// the documented llmserve-compatible contract.
	fb := &fakeBackend{name: "slow", delay: 60 * time.Millisecond}
	s, ts := gateway(t, serve.Config{MaxQueue: 1, MaxBatch: 1, RetryAfterSeconds: 2, CacheSize: -1}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"slow": fb},
	})

	const clients = 6
	statuses := make(chan int, clients)
	retryAfters := make(chan string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json",
				strings.NewReader(`{"backend":"slow","frame":{"index":0}}`))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			statuses <- resp.StatusCode
			if resp.StatusCode == http.StatusServiceUnavailable {
				retryAfters <- resp.Header.Get("Retry-After")
			}
		}()
	}
	wg.Wait()
	close(statuses)
	close(retryAfters)

	var ok200, shed503 int
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			shed503++
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	if ok200 == 0 || shed503 == 0 {
		t.Fatalf("want both served and shed requests, got %d OK / %d shed", ok200, shed503)
	}
	for ra := range retryAfters {
		d, okRA := llmclient.ParseRetryAfter(ra)
		if !okRA || d != 2*time.Second {
			t.Fatalf("Retry-After %q does not parse to the configured 2s via llmclient.ParseRetryAfter", ra)
		}
	}
	met := s.Metrics().Routes["slow"]
	if met.Shed != int64(shed503) || met.OK != int64(ok200) {
		t.Fatalf("metrics disagree with observed outcomes: %+v vs %d/%d", met, ok200, shed503)
	}
}

func TestClientCancelMidRequestLeavesServerHealthy(t *testing.T) {
	fb := &fakeBackend{name: "slow", delay: 150 * time.Millisecond}
	_, ts := gateway(t, serve.Config{CacheSize: -1}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"slow": fb},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/classify",
		strings.NewReader(`{"backend":"slow","frame":{"index":0}}`))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatalf("cancelled request unexpectedly succeeded")
	}

	// The gateway must still serve the next request correctly.
	resp := postClassify(t, ts.URL, `{"backend":"slow","frame":{"index":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200", resp.StatusCode)
	}
}

func TestBackendErrorSurfacesAs500(t *testing.T) {
	fb := &fakeBackend{name: "bad", err: fmt.Errorf("synthetic backend failure")}
	_, ts := gateway(t, serve.Config{CacheSize: -1}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"bad": fb},
	})
	resp := postClassify(t, ts.URL, `{"backend":"bad","frame":{"index":0}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if typ := errorType(t, resp); typ != "backend_error" {
		t.Fatalf("error type = %q, want backend_error", typ)
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	s, ts := gateway(t, serve.Config{}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"fake": &fakeBackend{name: "fake"}},
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Draining {
		t.Fatalf("healthy gateway reported %d %+v", resp.StatusCode, h)
	}
	if len(h.Backends) != 1 || h.Backends[0] != "fake" {
		t.Fatalf("healthz backends = %v", h.Backends)
	}

	postClassify(t, ts.URL, `{"backend":"fake","frame":{"index":0}}`)
	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	_ = resp.Body.Close()
	rm := m.Routes["fake"]
	if rm.Requests != 1 || rm.OK != 1 || rm.Batches != 1 || rm.Latency.Count != 1 {
		t.Fatalf("metrics after one request: %+v", rm)
	}
	if rm.QCapacity == 0 {
		t.Fatalf("queue capacity not reported")
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
		t.Fatalf("draining gateway reported %d %+v", resp.StatusCode, h)
	}
}

func TestDrainOnShutdownDropsNo200s(t *testing.T) {
	// Requests in flight when SIGTERM-style drain begins must all
	// complete with correct 200s: Drain → http.Server.Shutdown → Close
	// never abandons an admitted request.
	fb := &fakeBackend{name: "slow", delay: 100 * time.Millisecond}
	s, err := serve.New(context.Background(), serve.Config{CacheSize: -1}, serve.Options{
		Frames:   studyCache(t, 2),
		Backends: map[string]backend.Backend{"slow": fb},
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer func() { _ = s.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()

	const inflight = 6
	type outcome struct {
		status  int
		answers []bool
		frame   string
	}
	results := make(chan outcome, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"backend":"slow","frame":{"index":%d}}`, i)
			resp, err := http.Post("http://"+ln.Addr().String()+"/v1/classify", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("in-flight request %d: %v", i, err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			var out serve.ClassifyResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("decode %d: %v", i, err)
					return
				}
			}
			results <- outcome{status: resp.StatusCode, answers: out.Answers, frame: out.Frame}
		}(i)
	}

	// Let the requests get admitted, then drain while they are still
	// being served.
	time.Sleep(30 * time.Millisecond)
	s.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	wg.Wait()
	close(results)

	served := 0
	for out := range results {
		if out.status != http.StatusOK {
			t.Fatalf("in-flight request finished %d during drain, want 200", out.status)
		}
		for k, ans := range out.answers {
			if want := fakeAnswer(out.frame, k); ans != want {
				t.Fatalf("drained answer[%d] = %v, want %v", k, ans, want)
			}
		}
		served++
	}
	if served != inflight {
		t.Fatalf("served %d of %d in-flight requests across drain", served, inflight)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
