package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/core"
	"nbhd/internal/metrics"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/serve"
)

const (
	// The gateway serves the CNN route the way `nbhdserve -cnn-epochs 2`
	// mounts it: trained for two epochs on the default 300-coordinate,
	// seed-0 corpus. The workload seed drives the request sequence only,
	// so every run serves the same model.
	serveCoordinates = 300
	serveCorpusSeed  = 0
	serveCNNEpochs   = 2
	cnnRoute         = "cnn"
	serveFrames      = serveCoordinates * core.FramesPerCoordinate

	// serve-cnn-miss: twice the route's preferred batch of closed-loop
	// clients, so every batch dispatches full instead of waiting out the
	// flush timer; a round walks a seeded permutation of all frames,
	// more than the LRU holds, so every request misses.
	missClients = 32
	missRound   = time.Second // nominal time of one round
	// missBatchDelayMS raises the flush timer (default 3 ms) out of the
	// way. While one batch runs its GEMMs on both cores, the sixteen
	// clients refilling the next can wait longer than 3 ms for a core,
	// and the timer would then dispatch a partial batch now and then.
	missBatchDelayMS = 100

	// serve-zipf-upload: two closed-loop clients replay a Zipf(1.2)
	// sequence of uploaded frames from a fresh gateway each round. A
	// round touches fewer distinct frames than the LRU holds, so nothing
	// is evicted and the backend sees each distinct frame exactly once.
	zipfClients       = 2
	zipfRoundRequests = 3000
	zipfSkew          = 1.2
	zipfRound         = 1500 * time.Millisecond // nominal time of one round
	// zipfDistinct caps the frames a round touches. Uncapped, the
	// number touched moves with the seed by about 10%, and every one is
	// a miss that waits on the flush timer, so throughput would move
	// with it; capped, every round misses exactly this often.
	zipfDistinct = zipfRoundRequests / 10
	// zipfDebutGap keeps a frame from being requested again within this
	// many requests of its first request. The other client would
	// otherwise ask for it while its first miss waits on the flush timer
	// or the backend, and whether that repeat joins the pending batch or
	// becomes a second backend item would depend on timing.
	zipfDebutGap = 64
	// zipfLayoutSeed fixes which frames are popular, so the seed moves
	// the draws but not the popularity ranking.
	zipfLayoutSeed = 7919
)

// missSequence is one round of serve-cnn-miss: a permutation of all
// frames drawn from the seed.
func missSequence(seed int64, frames int) []int {
	return rand.New(rand.NewSource(seed)).Perm(frames)
}

// zipfSequence is one round of serve-zipf-upload: n Zipf-distributed
// draws over frames whose popularity order is fixed by zipfLayoutSeed.
// A draw is redrawn when it would repeat a frame that debuted fewer than
// zipfDebutGap requests earlier, or add a frame beyond zipfDistinct.
func zipfSequence(seed int64, frames, n int) []int {
	layout := rand.New(rand.NewSource(zipfLayoutSeed)).Perm(frames)
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfSkew, 1, uint64(frames-1))
	debut := make(map[int]int, zipfDistinct)
	seq := make([]int, n)
	for i := range seq {
		for {
			f := layout[z.Uint64()]
			d, seen := debut[f]
			if !seen {
				if len(debut) == zipfDistinct {
					continue
				}
				debut[f] = i
			} else if i-d < zipfDebutGap {
				continue
			}
			seq[i] = f
			break
		}
	}
	return seq
}

// serveBench drives the gateway's /v1/classify handler in-process: no
// sockets, a closed loop of client goroutines calling ServeHTTP.
type serveBench struct {
	upload  bool
	clients int
	rounds  int
	seq     []int
	config  serve.Config

	pipe     *core.Pipeline
	model    *classify.Model
	cnn      backend.Backend
	images   []*render.Image
	bodies   [][]byte
	expected [][]bool
	truth    [][scene.NumIndicators]bool
	byID     map[string]int
	byPixels map[uint64]int
	// trainEpochs are the setup's CNN training epoch times.
	trainEpochs []time.Duration

	// requests and gateway counters of the last pass's traced rounds.
	tracedRequests []request
	tracedTotals   roundWork
}

func newCNNMiss(seed int64, seconds int) instance {
	return &serveBench{
		clients: missClients,
		rounds:  roundsFor(seconds, missRound),
		seq:     missSequence(seed, serveFrames),
		config:  serve.Config{BatchDelayMS: missBatchDelayMS},
	}
}

func newZipfUpload(seed int64, seconds int) instance {
	return &serveBench{
		upload:  true,
		clients: zipfClients,
		rounds:  roundsFor(seconds, zipfRound),
		seq:     zipfSequence(seed, serveFrames, zipfRoundRequests),
	}
}

// roundsFor is how many rounds of the given nominal cost fill seconds,
// at least one.
func roundsFor(seconds int, round time.Duration) int {
	n := int(time.Duration(seconds) * time.Second / round)
	if n < 1 {
		n = 1
	}
	return n
}

// requestOptions are the options the gateway derives from a request
// that names none: all six indicators, English, parallel prompting.
func requestOptions() backend.Options {
	inds := scene.Indicators()
	return backend.Options{Indicators: inds[:], Language: prompt.English, Mode: prompt.Parallel}
}

// pixelKey fingerprints an image's exact pixels, so a traced batch can
// name the uploaded frames it carried.
func pixelKey(img *render.Image) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range img.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// setup is what a gateway operator waits for: the corpus, the CNN's
// training, and a warm render cache.
func (s *serveBench) setup(ctx context.Context) error {
	pipe, err := core.NewPipeline(core.Config{Coordinates: serveCoordinates, Seed: serveCorpusSeed})
	if err != nil {
		return err
	}
	// The same training the cnn backend kind runs when opened, with
	// the epochs timed: the backward pass and Adam run only here.
	var epochStart time.Time
	model, err := pipe.TrainSceneCNN(core.BaselineOptions{
		Epochs: serveCNNEpochs,
		// Training polls Stop as each epoch opens and calls Progress as
		// it closes.
		Stop: func() error {
			epochStart = time.Now()
			return ctx.Err()
		},
		Progress: func(int, float64) {
			s.trainEpochs = append(s.trainEpochs, time.Since(epochStart))
		},
	})
	if err != nil {
		return err
	}
	cnn, err := backend.NewCNN(model, 0)
	if err != nil {
		return err
	}
	if n := pipe.Study.Len(); n != serveFrames {
		return fmt.Errorf("corpus has %d frames, want %d", n, serveFrames)
	}
	s.pipe, s.model, s.cnn = pipe, model, cnn
	s.images = make([]*render.Image, serveFrames)
	for i := range s.images {
		ex, err := pipe.RenderCache().Example(i, cnn.Capabilities().RenderSize)
		if err != nil {
			return err
		}
		s.images[i] = ex.Image
	}
	return nil
}

// prepare builds the clients' request bodies, the ground truth, and the
// reference answers from the unwrapped backend called directly.
func (s *serveBench) prepare(ctx context.Context) error {
	n := len(s.images)
	s.truth = make([][scene.NumIndicators]bool, n)
	s.bodies = make([][]byte, n)
	s.byID = make(map[string]int, n)
	s.byPixels = make(map[uint64]int, n)
	s.expected = make([][]bool, n)
	for i, img := range s.images {
		ex, err := s.pipe.RenderCache().Example(i, img.W)
		if err != nil {
			return err
		}
		s.truth[i] = ex.Presence()
		s.byID[ex.ID] = i
		key := pixelKey(img)
		if _, dup := s.byPixels[key]; dup {
			return fmt.Errorf("frames %d and %d have identical pixels", s.byPixels[key], i)
		}
		s.byPixels[key] = i
		req := serve.ClassifyRequest{Backend: cnnRoute}
		if s.upload {
			req.Frame = serve.FrameRef{ImageF32Base64: base64.StdEncoding.EncodeToString(img.EncodeRawF32()), Width: img.W, Height: img.H}
		} else {
			idx := i
			req.Frame = serve.FrameRef{Index: &idx}
		}
		if s.bodies[i], err = json.Marshal(req); err != nil {
			return err
		}
	}
	bs := s.batchSize()
	for start := 0; start < n; start += bs {
		end := min(start+bs, n)
		items := make([]backend.Item, 0, end-start)
		for i := start; i < end; i++ {
			items = append(items, backend.Item{ID: fmt.Sprint(i), Image: s.images[i]})
		}
		res, err := s.cnn.Classify(ctx, backend.BatchRequest{Items: items, Options: requestOptions()})
		if err != nil {
			return err
		}
		copy(s.expected[start:end], res.Answers)
	}
	return nil
}

// frameOf names the corpus frame a batched item carries.
func (s *serveBench) frameOf(it backend.Item) int {
	if s.upload {
		if f, ok := s.byPixels[pixelKey(it.Image)]; ok {
			return f
		}
		return -1
	}
	if f, ok := s.byID[it.ID]; ok {
		return f
	}
	return -1
}

// request is one client call as the client saw it.
type request struct {
	frame      int
	start, end time.Duration
	status     int
	body       []byte
}

// responseBuffer is the in-process stand-in for a connection.
type responseBuffer struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *responseBuffer) Header() http.Header { return w.header }

func (w *responseBuffer) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *responseBuffer) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

// drive replays one round through h with a closed loop of clients.
// Times are measured from base.
func (s *serveBench) drive(ctx context.Context, h http.Handler, base time.Time) []request {
	out := make([]request, len(s.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.seq) {
					return
				}
				f := s.seq[i]
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/classify", bytes.NewReader(s.bodies[f]))
				if err != nil {
					out[i] = request{frame: f, body: []byte(err.Error())}
					continue
				}
				w := &responseBuffer{header: http.Header{}}
				t0 := time.Now()
				h.ServeHTTP(w, req)
				t1 := time.Now()
				out[i] = request{frame: f, start: t0.Sub(base), end: t1.Sub(base), status: w.status, body: w.buf.Bytes()}
			}
		}()
	}
	wg.Wait()
	return out
}

// roundWork is what the gateway's metrics say a round did.
type roundWork struct {
	hits, batches, items, dedup, shed int64
}

func (w *roundWork) add(o roundWork) {
	w.hits += o.hits
	w.batches += o.batches
	w.items += o.items
	w.dedup += o.dedup
	w.shed += o.shed
}

func (s *serveBench) run(ctx context.Context, rec *Recorder) (*pass, error) {
	p := &pass{work: map[string]float64{}}
	var report metrics.ClassReport
	var totals roundWork
	var partial int64
	distinct := len(slices.Compact(slices.Sorted(slices.Values(s.seq))))
	s.tracedRequests, s.tracedTotals = nil, roundWork{}
	base := time.Now()
	if rec != nil {
		base = rec.t0
	}
	for r := 0; r < s.rounds; r++ {
		rec := tracedSegment(rec, r)
		var b backend.Backend = s.cnn
		if rec != nil {
			b = &timedBackend{Backend: s.cnn, rec: rec, span: "backend.classify", frameOf: s.frameOf}
		}
		srv, err := serve.New(ctx, s.config, serve.Options{
			Frames:   s.pipe.RenderCache(),
			Backends: map[string]backend.Backend{cnnRoute: b},
		})
		if err != nil {
			return nil, err
		}
		end := startSegment()
		reqs := s.drive(ctx, srv.Handler(), base)
		ops := make([]time.Duration, len(reqs))
		for i, rq := range reqs {
			ops[i] = rq.end - rq.start
		}
		seg := end(float64(len(reqs)), ops)
		seg.traced = rec != nil
		p.segments = append(p.segments, seg)
		m := srv.Metrics().Routes[cnnRoute]
		if err := srv.Close(); err != nil {
			return nil, err
		}

		for i, rq := range reqs {
			p.attempted++
			var resp serve.ClassifyResponse
			if rq.status != http.StatusOK {
				p.fail("round %d request %d (frame %d): status %d: %s", r, i, rq.frame, rq.status, rq.body)
				continue
			}
			if err := json.Unmarshal(rq.body, &resp); err != nil {
				p.fail("round %d request %d: bad response: %v", r, i, err)
				continue
			}
			if !slices.Equal(resp.Answers, s.expected[rq.frame]) {
				p.fail("round %d request %d (frame %d): answers %v, direct Classify gave %v", r, i, rq.frame, resp.Answers, s.expected[rq.frame])
				continue
			}
			var pred [scene.NumIndicators]bool
			copy(pred[:], resp.Answers)
			if r == 0 {
				report.AddVector(pred, s.truth[rq.frame])
			}
		}
		if rec != nil {
			s.tracedRequests = append(s.tracedRequests, reqs...)
		}

		w := roundWork{hits: m.CacheHits, batches: m.Batches, dedup: m.DedupHits, shed: m.Shed}
		for size, count := range m.BatchHist {
			w.items += int64(size) * count
			if size != s.batchSize() {
				partial += count
			}
		}
		totals.add(w)
		if rec != nil {
			s.tracedTotals.add(w)
		}
		// The counters each workload fixes. With two upload clients,
		// whether a repeat is a cache hit or a co-batched duplicate
		// depends on timing; the backend's item count does not. The
		// batch count is not fixed either: a request that takes a
		// coalescer just as the filling request evicts it dispatches
		// alone on the flush timer — a split the gateway documents as
		// benign — so partial batches are counted, not failed.
		fixed := map[string]float64{"backend_items_per_round": float64(w.items)}
		if !s.upload {
			fixed["cache_hits_per_round"] = float64(w.hits)
			fixed["dedup_hits_per_round"] = float64(w.dedup)
		}
		if r == 0 {
			for k, v := range fixed {
				p.work[k] = v
			}
		} else if d := compareWork(&pass{work: p.work}, &pass{work: fixed}); len(d) > 0 {
			p.problems = append(p.problems, fmt.Sprintf("round %d: %v", r, d))
		}
		if s.upload {
			if w.items != int64(distinct) {
				p.problems = append(p.problems, fmt.Sprintf("round %d sent %d items to the backend, the sequence has %d distinct frames", r, w.items, distinct))
			}
		} else if w.hits != 0 || w.dedup != 0 || w.items != int64(len(reqs)) {
			p.problems = append(p.problems, fmt.Sprintf("round %d: %d cache hits, %d dedup hits, %d items for %d requests; want every request to reach the backend once", r, w.hits, w.dedup, w.items, len(reqs)))
		}
	}
	p.observed = map[string]float64{
		"batches":         float64(totals.batches),
		"partial_batches": float64(partial),
		"cache_hits":      float64(totals.hits),
		"dedup_hits":      float64(totals.dedup),
	}
	_, _, _, p.accuracy = report.Averages()
	p.work["rounds"] = float64(s.rounds)
	p.work["requests_per_round"] = float64(len(s.seq))
	p.work["distinct_frames_per_round"] = float64(distinct)
	return p, nil
}

// batchSize is the route's preferred batch, the size a full batch has.
func (s *serveBench) batchSize() int { return s.cnn.Capabilities().PreferredBatch }

func (s *serveBench) layers(ctx context.Context, traced *pass, rec *Recorder) (map[string]float64, error) {
	out := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	batches := rec.Named("backend.classify")
	var batchMS []float64
	items := 0
	byFrame := make(map[int][]int)
	for i, sp := range batches {
		batchMS = append(batchMS, ms(sp.Dur()))
		items += sp.Items
		for _, f := range sp.Frames {
			byFrame[f] = append(byFrame[f], i)
		}
	}
	out["backend.classify_ms"] = median(batchMS)
	var train time.Duration
	for _, d := range s.trainEpochs {
		train += d
	}
	out["classify.train_epoch_ms"] = ms(train) / float64(len(s.trainEpochs))
	out["backend.batches"] = float64(len(batches))
	out["backend.items"] = float64(items)
	if len(batches) > 0 {
		out["backend.batch_size"] = float64(items) / float64(len(batches))
	}

	// A request's time outside the backend is its own span minus the
	// part its batch's Classify span covers; a cache hit never reaches
	// the backend.
	var outside []float64
	unmatched := 0
	for _, rq := range s.tracedRequests {
		req := Span{Start: rq.start, End: rq.end}
		var resp serve.ClassifyResponse
		_ = json.Unmarshal(rq.body, &resp) // run already failed any bad body
		var kids []Span
		if !resp.Cached {
			for _, bi := range byFrame[rq.frame] {
				if b := batches[bi]; b.Start >= rq.start && b.End <= rq.end {
					kids = append(kids, b)
					break
				}
			}
			if len(kids) == 0 {
				unmatched++
			}
		}
		outside = append(outside, ms(selfTime(req, kids)))
	}
	if unmatched > 0 {
		traced.problems = append(traced.problems, fmt.Sprintf("%d missed requests have no Classify span inside them", unmatched))
	}
	out["serve.outside_backend_ms"] = median(outside)
	if n := len(s.tracedRequests); n > 0 {
		out["serve.cache_hit_ratio"] = float64(s.tracedTotals.hits) / float64(n)
	}
	// The counters below cover the whole pass, traced and untraced rounds.
	out["go.alloc_kb_per_request"] = float64(traced.goDelta.AllocBytes) / 1024 / float64(traced.attempted)
	out["serve.dedup_hits"] = float64(s.tracedTotals.dedup)
	out["serve.shed"] = float64(s.tracedTotals.shed)
	if passItems := traced.work["backend_items_per_round"] * float64(s.rounds); passItems > 0 {
		out["tensor.gemm_calls_per_item"] = float64(traced.tensor.GEMMCalls) / passItems
	}
	if t := traced.tensor.PanelReuses + traced.tensor.PanelAllocs; t > 0 {
		out["tensor.panel_reuse_ratio"] = float64(traced.tensor.PanelReuses) / float64(t)
	}

	// Probes of the layers under the adapter: the model's batched
	// forward pass, and the upload decode.
	bs := s.batchSize()
	var predictMS []float64
	for start := 0; start+bs <= len(s.images); start += bs {
		t := time.Now()
		if _, err := s.model.PredictBatch(s.images[start : start+bs]); err != nil {
			return nil, err
		}
		predictMS = append(predictMS, ms(time.Since(t)))
	}
	out["classify.predict_batch_ms"] = median(predictMS)
	if s.upload {
		size := s.images[0].W
		var decodeUS []float64
		for _, img := range s.images {
			raw := img.EncodeRawF32()
			t := time.Now()
			if _, err := render.DecodeRawF32(size, size, raw); err != nil {
				return nil, err
			}
			decodeUS = append(decodeUS, float64(time.Since(t))/float64(time.Microsecond))
		}
		out["render.decode_raw_us"] = median(decodeUS)
	}
	return out, nil
}
