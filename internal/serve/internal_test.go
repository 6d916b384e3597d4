package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
)

// recordingBackend counts the batch shapes the gateway dispatches.
type recordingBackend struct {
	caps backend.Capabilities

	mu      sync.Mutex
	batches []int
}

func (r *recordingBackend) Name() string                       { return "rec" }
func (r *recordingBackend) Capabilities() backend.Capabilities { return r.caps }

func (r *recordingBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	r.mu.Lock()
	r.batches = append(r.batches, len(req.Items))
	r.mu.Unlock()
	answers := make([][]bool, len(req.Items))
	for i := range answers {
		answers[i] = make([]bool, len(req.Options.Indicators))
	}
	return backend.BatchResult{Answers: answers}, nil
}

func (r *recordingBackend) sizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.batches...)
}

func testOptions() backend.Options {
	inds := scene.Indicators()
	return backend.Options{Indicators: inds[:], Language: prompt.English, Mode: prompt.Parallel}
}

func testServer(t *testing.T, cfg Config, b backend.Backend) *Server {
	t.Helper()
	s, err := New(context.Background(), cfg, Options{Backends: map[string]backend.Backend{"rec": b}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestCoalescerFlushesOnTimer(t *testing.T) {
	rb := &recordingBackend{}
	// A timer long enough that all three enqueues land before it fires,
	// even on a loaded race-detector runner.
	s := testServer(t, Config{MaxBatch: 8, BatchDelayMS: 100, CacheSize: -1}, rb)
	rt := s.routes["rec"]

	const n = 3 // below MaxBatch: only the timer can flush
	var wg sync.WaitGroup
	results := make([]callResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rt.enqueue(context.Background(), fmt.Sprintf("k%d", i), backend.Item{ID: "f", Image: render.MustNewImage(4, 4)}, testOptions())
			if err != nil {
				t.Errorf("enqueue: %v", err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := rb.sizes(); len(got) != 1 || got[0] != n {
		t.Fatalf("backend saw batches %v, want one batch of %d", got, n)
	}
	for i, res := range results {
		if res.batchSize != n {
			t.Fatalf("waiter %d reported batch size %d, want %d", i, res.batchSize, n)
		}
	}
	// Flushed coalescers must leave the per-options map (its keys carry
	// client-controlled values, so lingering entries are a leak).
	rt.mu.Lock()
	remaining := len(rt.coal)
	rt.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d idle coalescers left in the route map after flush", remaining)
	}
}

func TestCoalescerFlushesWhenFull(t *testing.T) {
	rb := &recordingBackend{}
	// A generous timer that cannot plausibly fire during the test: a
	// full batch must flush without waiting for it.
	s := testServer(t, Config{MaxBatch: 4, BatchDelayMS: 10_000, CacheSize: -1}, rb)
	rt := s.routes["rec"]

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.enqueue(context.Background(), fmt.Sprintf("k%d", i), backend.Item{ID: "f", Image: render.MustNewImage(4, 4)}, testOptions()); err != nil {
				t.Errorf("enqueue: %v", err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("full batches waited on the timer (%v)", elapsed)
	}
	total := 0
	for _, sz := range rb.sizes() {
		if sz > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch 4", sz)
		}
		total += sz
	}
	if total != 8 {
		t.Fatalf("dispatched %d items, want 8", total)
	}
}

func TestCoalescerDropsCancelledWaiters(t *testing.T) {
	rb := &recordingBackend{}
	s := testServer(t, Config{MaxBatch: 8, BatchDelayMS: 20, CacheSize: -1}, rb)
	rt := s.routes["rec"]

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := rt.enqueue(cancelled, "dead", backend.Item{ID: "dead", Image: render.MustNewImage(4, 4)}, testOptions()); err == nil {
			t.Errorf("cancelled enqueue returned no error")
		}
	}()
	go func() {
		defer wg.Done()
		res, err := rt.enqueue(context.Background(), "live", backend.Item{ID: "live", Image: render.MustNewImage(4, 4)}, testOptions())
		if err != nil {
			t.Errorf("live enqueue: %v", err)
			return
		}
		if res.batchSize != 1 {
			t.Errorf("live waiter batch size %d, want 1 (cancelled waiter should be dropped)", res.batchSize)
		}
	}()
	wg.Wait()
	for _, sz := range rb.sizes() {
		if sz != 1 {
			t.Fatalf("backend saw batch of %d; cancelled waiters must not be dispatched", sz)
		}
	}
}

func TestCoalescerSingleFlightDedup(t *testing.T) {
	rb := &recordingBackend{}
	s := testServer(t, Config{MaxBatch: 8, BatchDelayMS: 100, CacheSize: -1}, rb)
	rt := s.routes["rec"]

	// Four concurrent requests for the same frame plus one distinct:
	// the batch must dispatch two unique items, and every duplicate
	// waiter still gets its (shared) answer.
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		key := "hot"
		if i == 4 {
			key = "cold"
		}
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			res, err := rt.enqueue(context.Background(), key, backend.Item{ID: key, Image: render.MustNewImage(4, 4)}, testOptions())
			if err != nil {
				t.Errorf("enqueue %s: %v", key, err)
				return
			}
			if res.batchSize != 2 {
				t.Errorf("waiter %s saw batch size %d, want 2 unique items", key, res.batchSize)
			}
		}(key)
	}
	wg.Wait()
	if got := rb.sizes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("backend saw batches %v, want one deduplicated batch of 2", got)
	}
	met := rt.met.snapshot(0, 0)
	if met.DedupHits != 3 {
		t.Fatalf("dedup hits = %d, want 3 (4 identical waiters, 1 inference)", met.DedupHits)
	}
	rt.mu.Lock()
	remaining := len(rt.coal)
	rt.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d idle coalescers left in the route map after flush", remaining)
	}
}

func TestDispatchRespectsMaxConcurrency(t *testing.T) {
	var (
		mu      sync.Mutex
		active  int
		maxSeen int
	)
	slow := &gateBackend{
		caps: backend.Capabilities{MaxConcurrency: 2},
		enter: func() {
			mu.Lock()
			active++
			if active > maxSeen {
				maxSeen = active
			}
			mu.Unlock()
		},
		exit: func() {
			mu.Lock()
			active--
			mu.Unlock()
		},
	}
	s, err := New(context.Background(), Config{MaxBatch: 1, CacheSize: -1}, Options{Backends: map[string]backend.Backend{"g": slow}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Close() }()
	rt := s.routes["g"]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.enqueue(context.Background(), fmt.Sprintf("k%d", i), backend.Item{ID: "f", Image: render.MustNewImage(4, 4)}, testOptions()); err != nil {
				t.Errorf("enqueue: %v", err)
			}
		}()
	}
	wg.Wait()
	if maxSeen > 2 {
		t.Fatalf("%d concurrent Classify calls, capability allows 2", maxSeen)
	}
}

// gateBackend observes Classify concurrency.
type gateBackend struct {
	caps  backend.Capabilities
	enter func()
	exit  func()
}

func (g *gateBackend) Name() string                       { return "gate" }
func (g *gateBackend) Capabilities() backend.Capabilities { return g.caps }

func (g *gateBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	g.enter()
	time.Sleep(5 * time.Millisecond)
	g.exit()
	answers := make([][]bool, len(req.Items))
	for i := range answers {
		answers[i] = make([]bool, len(req.Options.Indicators))
	}
	return backend.BatchResult{Answers: answers}, nil
}

func TestOptionsKeyDistinguishesKnobs(t *testing.T) {
	base := testOptions()
	variants := []backend.Options{}
	v := base
	v.Language = prompt.Spanish
	variants = append(variants, v)
	v = base
	v.Mode = prompt.Sequential
	variants = append(variants, v)
	v = base
	v.Temperature = 0.7
	variants = append(variants, v)
	v = base
	v.TopP = 0.9
	variants = append(variants, v)
	v = base
	v.Nonce = 5
	variants = append(variants, v)
	v = base
	v.Indicators = base.Indicators[:2]
	variants = append(variants, v)

	baseKey := optionsKey(base)
	if optionsKey(base) != baseKey {
		t.Fatalf("optionsKey is not stable")
	}
	seen := map[string]bool{baseKey: true}
	for i, vo := range variants {
		k := optionsKey(vo)
		if seen[k] {
			t.Fatalf("variant %d collides with a previous key %q", i, k)
		}
		seen[k] = true
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(2)
	c.add("a", []bool{true})
	c.add("b", []bool{false})
	if _, ok := c.get("a"); !ok { // refresh a; b is now oldest
		t.Fatalf("a missing")
	}
	c.add("c", []bool{true}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatalf("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatalf("a evicted despite being fresh")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatalf("c missing")
	}
	if entries, capacity := c.size(); entries != 2 || capacity != 2 {
		t.Fatalf("size = %d/%d, want 2/2", entries, capacity)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(vals, 0.50); q != 5 {
		t.Fatalf("p50 = %v, want 5", q)
	}
	if q := quantile(vals, 0.99); q != 9 {
		t.Fatalf("p99 = %v, want 9", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"backends":{"m":{"kind":"vlm","model":"chatgpt-4o-mini"}},"max_batch":4}`))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if cfg.MaxBatch != 4 || cfg.Backends["m"].Kind != "vlm" {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	if _, err := ParseConfig([]byte(`{"backendz":{}}`)); err == nil {
		t.Fatalf("unknown field accepted")
	}
	// The committee is a voting spec: the retired "models" field is an
	// unknown field like any other.
	const want = `serve: parse config: json: unknown field "models"`
	if _, err := ParseConfig([]byte(`{"backends":{"committee":{"kind":"voting","models":["grok-2"]}}}`)); err == nil || err.Error() != want {
		t.Fatalf("ParseConfig = %v, want %q", err, want)
	}
	// Trailing data is rejected whatever follows the object, including
	// a stray '}' or ']' that json.Decoder.More reports as "no more".
	for _, trailing := range []string{` trailing`, `}`, `]`, `{}`, `x`} {
		if _, err := ParseConfig([]byte(`{"backends":{}}` + trailing)); err == nil {
			t.Fatalf("trailing data %q accepted", trailing)
		}
	}
	if _, err := ParseConfig([]byte(`{`)); err == nil {
		t.Fatalf("malformed JSON accepted")
	}
}

func TestNewRejectsBadPools(t *testing.T) {
	ctx := context.Background()
	if _, err := New(ctx, Config{}, Options{}); err == nil {
		t.Fatalf("empty pool accepted")
	}
	if _, err := New(ctx, Config{Backends: map[string]backend.Spec{"x": {Kind: "no-such-kind"}}}, Options{}); err == nil {
		t.Fatalf("unknown backend kind accepted")
	}
	if _, err := New(ctx, Config{Backends: map[string]backend.Spec{"rec": {Kind: "vlm", Model: "chatgpt-4o-mini"}}},
		Options{Backends: map[string]backend.Backend{"rec": &recordingBackend{}}}); err == nil || !strings.Contains(err.Error(), "both injected and configured") {
		t.Fatalf("route collision accepted: %v", err)
	}
}
