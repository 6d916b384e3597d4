// Package geoindex provides an in-memory spatial index over frame
// coordinates: a 2-d k-d tree on (latitude, longitude) answering
// nearest-frame, k-nearest, and radius queries in O(log n) for corpora
// where the gateway and neighborhood analysis previously scanned every
// frame.
//
// The index is exact, not approximate. Distances are computed with
// geo.Coordinate.DistanceFeet — the same equirectangular approximation
// every linear scan in the system uses — and tree pruning uses a
// conservative lower bound on that metric (never pruning a subtree that
// could contain a qualifying point), so query results are bit-identical
// to a brute-force scan: the same entries, the same float64 distances,
// in the same deterministic (distance, ID) order. The property suite in
// geoindex_test.go pins this equivalence on randomized corpora and on
// the degenerate inputs that break naive trees: empty and single-entry
// indexes, duplicate coordinates (every study coordinate carries four
// heading frames), and antipodal points.
//
// Build cost is O(n log n) with O(n) extra memory; the tree is immutable
// after Build and safe for concurrent readers without locking.
package geoindex

import (
	"math"
	"sort"

	"nbhd/internal/geo"
)

// Entry is one indexed point: a coordinate plus the caller's identifier
// (for the frame corpus, the frame's index in Study.Frames).
type Entry struct {
	// Coord is the indexed location.
	Coord geo.Coordinate
	// ID is an opaque caller identifier; ties in query results are
	// broken by ascending ID, so IDs should be unique for fully
	// deterministic ordering.
	ID int
}

// Result is one query hit: the entry plus its distance from the query
// point, computed with geo.Coordinate.DistanceFeet.
type Result struct {
	Entry
	// DistanceFeet is the equirectangular distance from the query.
	DistanceFeet float64
}

// box is an axis-aligned lat/lng bounding rectangle of a subtree.
type box struct {
	latMin, latMax float64
	lngMin, lngMax float64
}

// Index is an immutable k-d tree. The zero value is not usable; call
// Build. All methods are safe for concurrent use.
type Index struct {
	// ents holds the entries arranged in tree order: the node for the
	// range [lo,hi) sits at mid=(lo+hi)/2, its children occupy
	// [lo,mid) and [mid+1,hi).
	ents []Entry
	// boxes[mid] bounds every entry in the subtree rooted at mid.
	boxes []box
}

// Build constructs the index from the given entries. The input slice is
// copied; nil or empty input yields a valid empty index.
func Build(entries []Entry) *Index {
	ix := &Index{
		ents:  append([]Entry(nil), entries...),
		boxes: make([]box, len(entries)),
	}
	ix.build(0, len(ix.ents), 0)
	return ix
}

// build arranges [lo,hi) into a subtree split on the given axis
// (0 = latitude, 1 = longitude) and records its bounding box.
func (ix *Index) build(lo, hi, axis int) {
	if hi-lo <= 0 {
		return
	}
	mid := (lo + hi) / 2
	b := box{latMin: math.Inf(1), latMax: math.Inf(-1), lngMin: math.Inf(1), lngMax: math.Inf(-1)}
	for i := lo; i < hi; i++ {
		c := ix.ents[i].Coord
		b.latMin = math.Min(b.latMin, c.Lat)
		b.latMax = math.Max(b.latMax, c.Lat)
		b.lngMin = math.Min(b.lngMin, c.Lng)
		b.lngMax = math.Max(b.lngMax, c.Lng)
	}
	ix.boxes[mid] = b
	ix.selectMedian(lo, hi, mid, axis)
	ix.build(lo, mid, 1-axis)
	ix.build(mid+1, hi, 1-axis)
}

// axisKey is the per-axis sort key; ID breaks value ties so the tree
// shape is deterministic even with duplicate coordinates.
func axisKey(e Entry, axis int) (float64, int) {
	if axis == 0 {
		return e.Coord.Lat, e.ID
	}
	return e.Coord.Lng, e.ID
}

func keyLess(a Entry, b Entry, axis int) bool {
	av, ai := axisKey(a, axis)
	bv, bi := axisKey(b, axis)
	if av != bv {
		return av < bv
	}
	return ai < bi
}

// selectMedian partially sorts [lo,hi) so the axis-median lands at mid
// (quickselect with a median-of-three pivot).
func (ix *Index) selectMedian(lo, hi, mid, axis int) {
	for hi-lo > 1 {
		p := ix.partition(lo, hi, axis)
		switch {
		case p == mid:
			return
		case mid < p:
			hi = p
		default:
			lo = p + 1
		}
	}
}

// partition is a Lomuto partition of [lo,hi) around a median-of-three
// pivot; returns the pivot's final position.
func (ix *Index) partition(lo, hi, axis int) int {
	e := ix.ents
	m := lo + (hi-lo)/2
	// Median-of-three: order e[lo], e[m], e[hi-1]; use e[m] as pivot.
	if keyLess(e[m], e[lo], axis) {
		e[m], e[lo] = e[lo], e[m]
	}
	if keyLess(e[hi-1], e[lo], axis) {
		e[hi-1], e[lo] = e[lo], e[hi-1]
	}
	if keyLess(e[hi-1], e[m], axis) {
		e[hi-1], e[m] = e[m], e[hi-1]
	}
	pivot := e[m]
	e[m], e[hi-1] = e[hi-1], e[m]
	store := lo
	for i := lo; i < hi-1; i++ {
		if keyLess(e[i], pivot, axis) {
			e[i], e[store] = e[store], e[i]
			store++
		}
	}
	e[store], e[hi-1] = e[hi-1], e[store]
	return store
}

// minDistFeet returns a lower bound on DistanceFeet(q, p) for any p
// inside b. It is conservative, never exceeding the true minimum:
// the latitude term uses the degree gap to the box (|Δlat| is itself a
// lower bound of the metric), and the longitude term scales its degree
// gap by the smallest cosine the metric's mean-latitude factor can take
// for any p in the box. hypot of two per-component lower bounds is a
// lower bound of the metric's hypot.
func minDistFeet(q geo.Coordinate, b box) float64 {
	var dLat float64
	switch {
	case q.Lat < b.latMin:
		dLat = b.latMin - q.Lat
	case q.Lat > b.latMax:
		dLat = q.Lat - b.latMax
	}
	var dLng float64
	switch {
	case q.Lng < b.lngMin:
		dLng = b.lngMin - q.Lng
	case q.Lng > b.lngMax:
		dLng = q.Lng - b.lngMax
	}
	// The metric's longitude factor is cos((q.Lat+p.Lat)/2); minimize it
	// over p.Lat in [latMin, latMax]. Cosine decreases away from zero,
	// so the minimum sits at the endpoint with the larger |mean|.
	m1 := math.Abs((q.Lat + b.latMin) / 2)
	m2 := math.Abs((q.Lat + b.latMax) / 2)
	cosMin := math.Cos(math.Max(m1, m2) * math.Pi / 180)
	if cosMin < 0 {
		cosMin = 0
	}
	return math.Hypot(dLat*geo.FeetPerDegreeLat, dLng*geo.FeetPerDegreeLat*cosMin)
}

// Nearest returns the entry closest to q. Ties on distance break to the
// lowest ID. ok is false only for an empty index.
func (ix *Index) Nearest(q geo.Coordinate) (best Result, ok bool) {
	if len(ix.ents) == 0 {
		return Result{}, false
	}
	res := ix.KNearest(q, 1)
	return res[0], true
}

// KNearest returns the k entries closest to q, ordered by ascending
// (distance, ID). k larger than the index returns every entry; k <= 0
// returns nil.
func (ix *Index) KNearest(q geo.Coordinate, k int) []Result {
	if k <= 0 || len(ix.ents) == 0 {
		return nil
	}
	if k > len(ix.ents) {
		k = len(ix.ents)
	}
	h := &resultHeap{}
	ix.knn(q, k, h, 0, len(ix.ents), 0)
	out := make([]Result, len(h.r))
	copy(out, h.r)
	sortResults(out)
	return out
}

func (ix *Index) knn(q geo.Coordinate, k int, h *resultHeap, lo, hi, axis int) {
	if hi-lo <= 0 {
		return
	}
	mid := (lo + hi) / 2
	// Prune strictly: a bound equal to the current kth distance may
	// still hide an equal-distance entry with a lower ID.
	if len(h.r) == k && minDistFeet(q, ix.boxes[mid]) > h.worst().DistanceFeet {
		return
	}
	e := ix.ents[mid]
	h.offer(Result{Entry: e, DistanceFeet: q.DistanceFeet(e.Coord)}, k)
	qv, _ := axisKey(Entry{Coord: q, ID: -1}, axis)
	ev, _ := axisKey(e, axis)
	if qv < ev {
		ix.knn(q, k, h, lo, mid, 1-axis)
		ix.knn(q, k, h, mid+1, hi, 1-axis)
	} else {
		ix.knn(q, k, h, mid+1, hi, 1-axis)
		ix.knn(q, k, h, lo, mid, 1-axis)
	}
}

// Radius returns every entry within radiusFeet of q (inclusive, the
// same d <= r test a linear scan applies), ordered by ascending
// (distance, ID). A negative radius returns nil.
func (ix *Index) Radius(q geo.Coordinate, radiusFeet float64) []Result {
	if radiusFeet < 0 || len(ix.ents) == 0 {
		return nil
	}
	var out []Result
	ix.radius(q, radiusFeet, &out, 0, len(ix.ents), 0)
	sortResults(out)
	return out
}

func (ix *Index) radius(q geo.Coordinate, r float64, out *[]Result, lo, hi, axis int) {
	if hi-lo <= 0 {
		return
	}
	mid := (lo + hi) / 2
	if minDistFeet(q, ix.boxes[mid]) > r {
		return
	}
	e := ix.ents[mid]
	if d := q.DistanceFeet(e.Coord); d <= r {
		*out = append(*out, Result{Entry: e, DistanceFeet: d})
	}
	ix.radius(q, r, out, lo, mid, 1-axis)
	ix.radius(q, r, out, mid+1, hi, 1-axis)
}

// sortResults orders results by (distance, ID) ascending — the
// deterministic order every query method returns.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].DistanceFeet != rs[j].DistanceFeet {
			return rs[i].DistanceFeet < rs[j].DistanceFeet
		}
		return rs[i].ID < rs[j].ID
	})
}

// resultHeap is a fixed-capacity max-heap on (distance, ID): the root is
// the current worst of the best k, evicted when a better result arrives.
type resultHeap struct {
	r []Result
}

func resultWorse(a, b Result) bool {
	if a.DistanceFeet != b.DistanceFeet {
		return a.DistanceFeet > b.DistanceFeet
	}
	return a.ID > b.ID
}

func (h *resultHeap) worst() Result { return h.r[0] }

func (h *resultHeap) offer(c Result, k int) {
	if len(h.r) < k {
		h.r = append(h.r, c)
		// Sift up.
		i := len(h.r) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !resultWorse(h.r[i], h.r[p]) {
				break
			}
			h.r[i], h.r[p] = h.r[p], h.r[i]
			i = p
		}
		return
	}
	if !resultWorse(h.r[0], c) {
		return
	}
	h.r[0] = c
	// Sift down.
	i := 0
	for {
		l, rgt := 2*i+1, 2*i+2
		w := i
		if l < len(h.r) && resultWorse(h.r[l], h.r[w]) {
			w = l
		}
		if rgt < len(h.r) && resultWorse(h.r[rgt], h.r[w]) {
			w = rgt
		}
		if w == i {
			return
		}
		h.r[i], h.r[w] = h.r[w], h.r[i]
		i = w
	}
}
