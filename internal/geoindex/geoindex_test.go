package geoindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"nbhd/internal/geo"
)

// linearRadius is the brute-force reference the index must match
// bit-for-bit: every entry with DistanceFeet(q) <= r, ordered by
// (distance, ID).
func linearRadius(entries []Entry, q geo.Coordinate, r float64) []Result {
	var out []Result
	for _, e := range entries {
		if d := q.DistanceFeet(e.Coord); d <= r {
			out = append(out, Result{Entry: e, DistanceFeet: d})
		}
	}
	sortResults(out)
	return out
}

// linearKNearest is the brute-force k-nearest reference.
func linearKNearest(entries []Entry, q geo.Coordinate, k int) []Result {
	all := make([]Result, 0, len(entries))
	for _, e := range entries {
		all = append(all, Result{Entry: e, DistanceFeet: q.DistanceFeet(e.Coord)})
	}
	sortResults(all)
	if k > len(all) {
		k = len(all)
	}
	if k <= 0 {
		return nil
	}
	return all[:k]
}

func sameResults(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Coord != want[i].Coord {
			t.Fatalf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
		// Bit-identical distances, not approximately equal: both sides
		// must call the same DistanceFeet on the same operands.
		if math.Float64bits(got[i].DistanceFeet) != math.Float64bits(want[i].DistanceFeet) {
			t.Fatalf("result[%d] distance = %x, want %x (not bit-identical)",
				i, math.Float64bits(got[i].DistanceFeet), math.Float64bits(want[i].DistanceFeet))
		}
	}
}

// randomEntries clusters points the way the study corpus does: a few
// dense patches plus scattered outliers, with every coordinate
// duplicated fourfold (one per heading) like real frames.
func randomEntries(rng *rand.Rand, coords int) []Entry {
	out := make([]Entry, 0, coords*4)
	id := 0
	for i := 0; i < coords; i++ {
		var c geo.Coordinate
		if rng.Intn(4) == 0 {
			c = geo.Coordinate{Lat: rng.Float64()*160 - 80, Lng: rng.Float64()*340 - 170}
		} else {
			c = geo.Coordinate{Lat: 35 + rng.Float64()*0.5, Lng: -79 - rng.Float64()*0.5}
		}
		for h := 0; h < 4; h++ {
			out = append(out, Entry{Coord: c, ID: id})
			id++
		}
	}
	return out
}

func TestRadiusMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		entries := randomEntries(rng, 50+rng.Intn(100))
		ix := Build(entries)
		for q := 0; q < 25; q++ {
			query := geo.Coordinate{Lat: 35 + rng.Float64()*0.6 - 0.05, Lng: -79 - rng.Float64()*0.6 + 0.05}
			radius := math.Pow(10, rng.Float64()*6) // 1ft .. ~1000mi
			got := ix.Radius(query, radius)
			want := linearRadius(entries, query, radius)
			sameResults(t, got, want)
		}
	}
}

func TestKNearestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		entries := randomEntries(rng, 30+rng.Intn(80))
		ix := Build(entries)
		for q := 0; q < 20; q++ {
			query := geo.Coordinate{Lat: rng.Float64()*170 - 85, Lng: rng.Float64()*350 - 175}
			k := 1 + rng.Intn(12)
			got := ix.KNearest(query, k)
			want := linearKNearest(entries, query, k)
			sameResults(t, got, want)
		}
	}
}

// TestNearestSelf: every indexed point must find itself (or an exact
// duplicate with a lower ID) at distance zero — the coverage property
// that guarantees every stored frame is findable.
func TestNearestSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := randomEntries(rng, 200)
	ix := Build(entries)
	// lowestAt maps a coordinate to its lowest entry ID, the
	// deterministic winner among duplicates.
	lowestAt := make(map[geo.Coordinate]int)
	for _, e := range entries {
		if cur, ok := lowestAt[e.Coord]; !ok || e.ID < cur {
			lowestAt[e.Coord] = e.ID
		}
	}
	for _, e := range entries {
		got, ok := ix.Nearest(e.Coord)
		if !ok {
			t.Fatalf("Nearest(%v) reported empty index", e.Coord)
		}
		if got.DistanceFeet != 0 {
			t.Fatalf("Nearest(%v) distance = %v, want 0", e.Coord, got.DistanceFeet)
		}
		if got.ID != lowestAt[e.Coord] {
			t.Fatalf("Nearest(%v) ID = %d, want lowest duplicate %d", e.Coord, got.ID, lowestAt[e.Coord])
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := Build(nil)
	if _, ok := ix.Nearest(geo.Coordinate{Lat: 1, Lng: 2}); ok {
		t.Fatal("Nearest on empty index reported ok")
	}
	if got := ix.KNearest(geo.Coordinate{}, 5); got != nil {
		t.Fatalf("KNearest on empty index = %v, want nil", got)
	}
	if got := ix.Radius(geo.Coordinate{}, 1e9); got != nil {
		t.Fatalf("Radius on empty index = %v, want nil", got)
	}
}

func TestSingleEntry(t *testing.T) {
	e := Entry{Coord: geo.Coordinate{Lat: 35.5, Lng: -79.1}, ID: 9}
	ix := Build([]Entry{e})
	got, ok := ix.Nearest(geo.Coordinate{Lat: -35.5, Lng: 100})
	if !ok || got.ID != 9 {
		t.Fatalf("Nearest = %+v ok=%v, want ID 9", got, ok)
	}
	if rs := ix.Radius(e.Coord, 0); len(rs) != 1 || rs[0].ID != 9 {
		t.Fatalf("Radius 0 at self = %v, want the single entry", rs)
	}
	if rs := ix.Radius(geo.Coordinate{Lat: 36, Lng: -79.1}, 1); len(rs) != 0 {
		t.Fatalf("Radius 1ft far away = %v, want empty", rs)
	}
}

// TestAllDuplicateCoordinates: a corpus where every entry shares one
// coordinate (the pathological tree) must still answer exactly.
func TestAllDuplicateCoordinates(t *testing.T) {
	c := geo.Coordinate{Lat: 35.2, Lng: -78.9}
	entries := make([]Entry, 64)
	for i := range entries {
		entries[i] = Entry{Coord: c, ID: i}
	}
	ix := Build(entries)
	got, ok := ix.Nearest(c)
	if !ok || got.ID != 0 || got.DistanceFeet != 0 {
		t.Fatalf("Nearest = %+v ok=%v, want ID 0 at distance 0", got, ok)
	}
	rs := ix.Radius(c, 0)
	if len(rs) != len(entries) {
		t.Fatalf("Radius 0 found %d of %d duplicates", len(rs), len(entries))
	}
	for i, r := range rs {
		if r.ID != i {
			t.Fatalf("Radius result[%d].ID = %d, want %d (ascending ID order)", i, r.ID, i)
		}
	}
	ks := ix.KNearest(c, 10)
	for i, r := range ks {
		if r.ID != i {
			t.Fatalf("KNearest result[%d].ID = %d, want %d", i, r.ID, i)
		}
	}
}

// TestAntipodalCoordinates: extreme lat/lng spans (including points
// whose longitude term collapses near the poles) must match the linear
// scan, since DistanceFeet does not wrap longitude and neither may the
// index.
func TestAntipodalCoordinates(t *testing.T) {
	entries := []Entry{
		{Coord: geo.Coordinate{Lat: 89.9, Lng: 179.9}, ID: 0},
		{Coord: geo.Coordinate{Lat: -89.9, Lng: -179.9}, ID: 1},
		{Coord: geo.Coordinate{Lat: 89.9, Lng: -179.9}, ID: 2},
		{Coord: geo.Coordinate{Lat: -89.9, Lng: 179.9}, ID: 3},
		{Coord: geo.Coordinate{Lat: 0, Lng: 0}, ID: 4},
		{Coord: geo.Coordinate{Lat: 0, Lng: 180}, ID: 5},
		{Coord: geo.Coordinate{Lat: 90, Lng: 0}, ID: 6},
		{Coord: geo.Coordinate{Lat: -90, Lng: 0}, ID: 7},
	}
	ix := Build(entries)
	queries := []geo.Coordinate{
		{Lat: 89.9, Lng: 179.9}, {Lat: -89.9, Lng: -179.9},
		{Lat: 0, Lng: 0}, {Lat: 45, Lng: 90}, {Lat: -45, Lng: -90},
		{Lat: 90, Lng: 180}, {Lat: -90, Lng: -180},
	}
	for _, q := range queries {
		for _, r := range []float64{0, 100, 1e6, 1e8, 4e9} {
			sameResults(t, ix.Radius(q, r), linearRadius(entries, q, r))
		}
		sameResults(t, ix.KNearest(q, len(entries)), linearKNearest(entries, q, len(entries)))
	}
}

// TestKNearestOrderIsDeterministic: repeated builds over shuffled input
// must return identical results — the tree shape may differ, the
// answers may not.
func TestKNearestOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 100)
	q := geo.Coordinate{Lat: 35.3, Lng: -79.2}
	want := Build(entries).KNearest(q, 17)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Build(shuffled).KNearest(q, 17)
		sameResults(t, got, want)
	}
}

func TestRadiusBoundaryInclusive(t *testing.T) {
	a := geo.Coordinate{Lat: 35, Lng: -79}
	b := geo.Coordinate{Lat: 35.01, Lng: -79}
	ix := Build([]Entry{{Coord: b, ID: 0}})
	d := a.DistanceFeet(b)
	if rs := ix.Radius(a, d); len(rs) != 1 {
		t.Fatalf("Radius at exactly d=%v excluded the boundary point", d)
	}
	if rs := ix.Radius(a, math.Nextafter(d, 0)); len(rs) != 0 {
		t.Fatalf("Radius just under d included the boundary point")
	}
}

func TestKNearestClampAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := randomEntries(rng, 10)
	ix := Build(entries)
	if got := ix.KNearest(geo.Coordinate{}, 0); got != nil {
		t.Fatalf("KNearest k=0 = %v, want nil", got)
	}
	if got := ix.KNearest(geo.Coordinate{}, -3); got != nil {
		t.Fatalf("KNearest k<0 = %v, want nil", got)
	}
	got := ix.KNearest(geo.Coordinate{Lat: 35, Lng: -79}, len(entries)*10)
	if len(got) != len(entries) {
		t.Fatalf("KNearest clamp returned %d of %d", len(got), len(entries))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].DistanceFeet != got[j].DistanceFeet {
			return got[i].DistanceFeet < got[j].DistanceFeet
		}
		return got[i].ID < got[j].ID
	}) {
		t.Fatal("KNearest results not in (distance, ID) order")
	}
}
