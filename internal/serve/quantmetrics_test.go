// Black-box coverage for the quantized-rollout observability surface:
// /metricsz must report, per route, whether the backend runs int8
// inference and its f32-vs-quantized dispatch counters, plus the
// process-wide tensor kernel counters — the signals an operator watches
// while flipping "quantized": true route by route.
package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/serve"
	"nbhd/internal/tensor"
)

// quantBackend is a fakeBackend that advertises int8 inference and
// exposes dispatch counters, standing in for the yolo/cnn adapters.
type quantBackend struct {
	fakeBackend
	stats backend.ComputeStats
}

func (q *quantBackend) ComputeStats() backend.ComputeStats { return q.stats }

func TestMetricszReportsQuantizedCompute(t *testing.T) {
	qb := &quantBackend{
		fakeBackend: fakeBackend{name: "q", caps: backend.Capabilities{Quantized: true}},
		stats:       backend.ComputeStats{F32Infers: 2, QuantizedInfers: 7},
	}
	_, ts := gateway(t, serve.Config{CacheSize: -1}, serve.Options{
		Frames: studyCache(t, 2),
		Backends: map[string]backend.Backend{
			"q":     qb,
			"plain": &fakeBackend{name: "plain"},
		},
	})

	// Drive one int8 GEMM so the process-wide counter provably covers
	// kernel activity from this test, not just earlier packages.
	before := tensor.Stats().QuantizedGEMMCalls
	a := &tensor.QTensor{Shape: []int{2, 3}, Data: make([]int8, 6), Scale: 1}
	b := &tensor.QTensor{Shape: []int{3, 2}, Data: make([]int8, 6), Scale: 1}
	dst, err := tensor.New(2, 2)
	if err != nil {
		t.Fatalf("tensor.New: %v", err)
	}
	if err := tensor.QMatMulInto(dst, a, b); err != nil {
		t.Fatalf("QMatMulInto: %v", err)
	}

	postClassify(t, ts.URL, `{"backend":"q","frame":{"index":0}}`)
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}

	rm := m.Routes["q"]
	if !rm.Quantized {
		t.Errorf("quantized route not flagged in /metricsz: %+v", rm)
	}
	if rm.Compute == nil {
		t.Fatalf("quantized route missing compute counters: %+v", rm)
	}
	if *rm.Compute != qb.stats {
		t.Errorf("route compute counters = %+v, want %+v", *rm.Compute, qb.stats)
	}
	if pm := m.Routes["plain"]; pm.Quantized || pm.Compute != nil {
		t.Errorf("non-statser route leaked quantized fields: %+v", pm)
	}
	if m.Compute.QuantizedGEMMCalls <= before {
		t.Errorf("global quantized GEMM counter did not advance: %d -> %d",
			before, m.Compute.QuantizedGEMMCalls)
	}
}
