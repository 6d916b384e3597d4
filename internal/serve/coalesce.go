package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/scene"
)

// route is one mounted backend: its admission queue, its coalescers
// (one per options key), and its counters.
type route struct {
	srv      *Server
	name     string
	b        backend.Backend
	caps     backend.Capabilities
	maxBatch int
	delay    time.Duration
	// renderSize is the resolution dataset frames render at for this
	// route: the backend's required size, else the gateway default.
	renderSize int
	// queue is the bounded admission queue: a token is held from
	// admission to response, so its occupancy is the route's in-flight
	// depth and overflow sheds with 503.
	queue chan struct{}
	// dispatchSem bounds concurrent Classify calls when the backend
	// advertises a MaxConcurrency; nil means unbounded.
	dispatchSem chan struct{}

	mu   sync.Mutex
	coal map[string]*coalescer
	met  *routeMetrics
}

// coalescer accumulates single-frame requests that share one options
// key into a micro-batch, flushing on whichever comes first: the batch
// filling to maxBatch, or the max-latency timer expiring after the
// first request. Idle coalescers are evicted from the route's map
// after their last flush — options keys carry client-controlled values
// (nonce, temperature), so the map must not grow with key diversity.
type coalescer struct {
	rt   *route
	key  string
	opts backend.Options

	mu      sync.Mutex
	pending []*pendingCall
	timer   *time.Timer
}

// pendingCall is one request waiting for its batch.
type pendingCall struct {
	ctx context.Context
	// key identifies the frame within the coalescer (options are fixed
	// per coalescer), so concurrent identical requests collapse to one
	// backend item.
	key  string
	item backend.Item
	// done receives exactly one result; buffered so a dispatcher never
	// blocks on a waiter that stopped listening (client hung up).
	done chan callResult
}

type callResult struct {
	answers   []bool
	batchSize int
	// cached marks an answer the LRU served (route.answer).
	cached bool
	err    error
}

// enqueue joins the coalescer for the request's options key and waits
// for its batch to be served. A cancelled client returns immediately;
// its slot is dropped from the batch if it has not been dispatched yet.
func (rt *route) enqueue(ctx context.Context, frameKey string, item backend.Item, opts backend.Options) (callResult, error) {
	pc := &pendingCall{ctx: ctx, key: frameKey, item: item, done: make(chan callResult, 1)}
	if rt.maxBatch <= 1 || rt.delay <= 0 {
		// No batch window: dispatch alone, never touching the
		// coalescer map.
		rt.dispatch(opts, []*pendingCall{pc})
	} else {
		key := optionsKey(opts)
		rt.mu.Lock()
		c := rt.coal[key]
		if c == nil {
			c = &coalescer{rt: rt, key: key, opts: opts}
			rt.coal[key] = c
		}
		rt.mu.Unlock()
		c.add(pc)
	}
	select {
	case res := <-pc.done:
		return res, res.err
	case <-ctx.Done():
		return callResult{}, ctx.Err()
	}
}

// add enqueues the call, dispatching synchronously when the batch fills
// (the triggering request is about to block on its answer anyway) and
// arming the max-latency timer when it opens a fresh batch.
func (c *coalescer) add(pc *pendingCall) {
	c.mu.Lock()
	c.pending = append(c.pending, pc)
	if len(c.pending) >= c.rt.maxBatch {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.releaseIfIdle()
		c.rt.dispatch(c.opts, batch)
		return
	}
	if len(c.pending) == 1 {
		c.timer = time.AfterFunc(c.rt.delay, c.flushTimer)
	}
	c.mu.Unlock()
}

// flushTimer dispatches whatever accumulated when the max-latency timer
// fires. Racing a fill-triggered flush is benign: the loser takes an
// empty batch.
func (c *coalescer) flushTimer() {
	c.mu.Lock()
	batch := c.takeLocked()
	c.mu.Unlock()
	c.releaseIfIdle()
	if len(batch) > 0 {
		c.rt.dispatch(c.opts, batch)
	}
}

// releaseIfIdle evicts the coalescer from the route's map when it holds
// no pending calls. A request that raced the eviction and still holds a
// reference just flushes independently — a split batch, never a lost
// call. Lock order is route.mu before coalescer.mu, same as enqueue.
func (c *coalescer) releaseIfIdle() {
	c.rt.mu.Lock()
	c.mu.Lock()
	if len(c.pending) == 0 && c.rt.coal[c.key] == c {
		delete(c.rt.coal, c.key)
	}
	c.mu.Unlock()
	c.rt.mu.Unlock()
}

// takeLocked claims the pending batch and disarms the timer; callers
// hold c.mu.
func (c *coalescer) takeLocked() []*pendingCall {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	batch := c.pending
	c.pending = nil
	return batch
}

// dispatch serves one coalesced batch: waiters whose clients already
// hung up are dropped (no wasted backend work), concurrent identical
// requests collapse single-flight into one backend item — the batch
// window is what creates the collapse opportunity; a batch-size-1
// gateway computes every duplicate — and the unique items go to the
// backend as one Classify call under the server's lifetime context,
// never a single client's, so one hang-up cannot fail co-batched
// requests. Every live waiter gets its aligned answer.
func (rt *route) dispatch(opts backend.Options, batch []*pendingCall) {
	live := make([]*pendingCall, 0, len(batch))
	for _, pc := range batch {
		if err := pc.ctx.Err(); err != nil {
			pc.done <- callResult{err: err}
			continue
		}
		live = append(live, pc)
	}
	if len(live) == 0 {
		return
	}
	failAll := func(err error) {
		for _, pc := range live {
			pc.done <- callResult{err: err}
		}
	}
	if rt.dispatchSem != nil {
		select {
		case rt.dispatchSem <- struct{}{}:
			defer func() { <-rt.dispatchSem }()
		case <-rt.srv.baseCtx.Done():
			failAll(rt.srv.baseCtx.Err())
			return
		}
	}
	// Single-flight dedup: one backend item per distinct frame.
	slot := make(map[string]int, len(live))
	items := make([]backend.Item, 0, len(live))
	for _, pc := range live {
		if _, dup := slot[pc.key]; !dup {
			slot[pc.key] = len(items)
			items = append(items, pc.item)
		}
	}
	rt.met.batchOne(len(items), len(live)-len(items))
	res, err := rt.b.Classify(rt.srv.baseCtx, backend.BatchRequest{Items: items, Options: opts})
	if err != nil {
		failAll(fmt.Errorf("serve: %s: %w", rt.name, err))
		return
	}
	if len(res.Answers) != len(items) {
		failAll(fmt.Errorf("serve: %s: backend returned %d answers for %d items", rt.name, len(res.Answers), len(items)))
		return
	}
	for _, pc := range live {
		pc.done <- callResult{answers: res.Answers[slot[pc.key]], batchSize: len(items)}
	}
}

// optionsKey canonicalizes the request knobs that must match for two
// requests to share a batch (and a cache entry).
func optionsKey(o backend.Options) string {
	var sb strings.Builder
	for _, ind := range o.Indicators {
		sb.WriteString(ind.Abbrev())
		sb.WriteByte(',')
	}
	fmt.Fprintf(&sb, "|%d|%d|%g|%g|%d", o.Language, o.Mode, o.Temperature, o.TopP, o.Nonce)
	return sb.String()
}

// indicatorNames renders the response's indicator list.
func indicatorNames(inds []scene.Indicator) []string {
	out := make([]string, len(inds))
	for i, ind := range inds {
		out[i] = ind.String()
	}
	return out
}
