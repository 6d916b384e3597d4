package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// that layer's public function. Spans stay in memory until the run ends.
type Span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Start  time.Duration // since the recorder was made
	End    time.Duration
	// Items is the work the call covered (frames in a batch), 0 if none.
	Items int
	// Frames identifies the corpus frames a batch carried, when the
	// recording site can tell.
	Frames []int
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder collects spans from any number of goroutines.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

type spanKey struct{}

// Open is a started span; Close records it.
type Open struct {
	r    *Recorder
	span Span
}

// Start opens a span named name whose parent is the span carried by ctx,
// and returns ctx carrying the new span for calls it makes.
func (r *Recorder) Start(ctx context.Context, name string) (context.Context, *Open) {
	parent, _ := ctx.Value(spanKey{}).(int64)
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	o := &Open{r: r, span: Span{ID: id, Parent: parent, Name: name, Start: time.Since(r.t0)}}
	return context.WithValue(ctx, spanKey{}, id), o
}

// End stops the span's clock; Record files it. They are separate so a
// recording site can work out Frames after the clock stops.
func (o *Open) End(items int) *Span {
	o.span.End = time.Since(o.r.t0)
	o.span.Items = items
	return &o.span
}

// Record files an ended span.
func (o *Open) Record() {
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
}

// Close ends and records the span.
func (o *Open) Close(items int) {
	o.End(items)
	o.Record()
}

// Spans returns a copy of every closed span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Named returns the closed spans called name.
func (r *Recorder) Named(name string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open stretch of the recorder's clock.
type interval struct{ start, end time.Duration }

// covered is how much of [start,end) the union of ivs covers.
func covered(start, end time.Duration, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < start {
			iv.start = start
		}
		if iv.end > end {
			iv.end = end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children (a committee asking members concurrently)
// count once.
func selfTime(s Span, children []Span) time.Duration {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return s.Dur() - covered(s.Start, s.End, ivs)
}

// childrenOf groups spans by parent ID.
func childrenOf(spans []Span) map[int64][]Span {
	out := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}
