package serve_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/render"
	"nbhd/internal/serve"
)

// BenchmarkClassifyUploadHit serves one 64×64 raw-f32 upload that the
// LRU already holds through Server.Handler(), the request most of the
// Zipf upload replay's traffic is. Its B/op and allocs/op are what a
// cache hit costs the gateway, recorder and request included.
func BenchmarkClassifyUploadHit(b *testing.B) {
	fb := &fakeBackend{name: "fake", caps: backend.Capabilities{PreferredBatch: 1}}
	srv, err := serve.New(context.Background(), serve.Config{}, serve.Options{Backends: map[string]backend.Backend{"fake": fb}})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	img := render.MustNewImage(64, 64)
	for i := range img.Pix {
		img.Pix[i] = float32(i%251) / 250
	}
	body, err := json.Marshal(serve.ClassifyRequest{Backend: "fake", Frame: serve.FrameRef{
		ImageF32Base64: base64.StdEncoding.EncodeToString(img.EncodeRawF32()), Width: img.W, Height: img.H}})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	classify := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		return rec
	}
	classify() // fills the LRU
	var resp serve.ClassifyResponse
	if rec := classify(); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || !resp.Cached {
		b.Fatalf("repeat upload: status %d, body %s; want a 200 cache hit", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if rec := classify(); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
