// Spatial-layer benchmarks for the persistent frame store and the geo
// index (run once per CI pass by `make bench-smoke`):
//
//   - BenchmarkNearest pits the k-d tree against the linear scan it
//     replaces on a corpus-sized point set. Both sides produce
//     bit-identical results (pinned by the geoindex property suite);
//     the benchmark measures the complexity gap alone.
//   - BenchmarkWarmStart renders a study cold into a frame store, then
//     measures serving the same corpus from a reopened store — the
//     render-once/serve-forever path. The warm side asserts zero
//     re-renders every iteration.
package nbhd

import (
	"math/rand"
	"sort"
	"testing"

	"nbhd/internal/dataset"
	"nbhd/internal/geo"
	"nbhd/internal/geoindex"
	"nbhd/internal/store"
)

// benchGeoEntries builds a study-shaped point set: one entry per
// coordinate of a deterministic corpus, plus query points jittered off
// the same coordinates so queries land inside the indexed region.
func benchGeoEntries(b *testing.B, coords int) ([]geoindex.Entry, []geo.Coordinate) {
	b.Helper()
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: coords, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]geoindex.Entry, 0, st.Len())
	for i, fr := range st.Frames {
		if i%4 != 0 { // one entry per coordinate, not per heading
			continue
		}
		entries = append(entries, geoindex.Entry{Coord: fr.Scene.Point.Coordinate, ID: i})
	}
	rng := rand.New(rand.NewSource(benchSeed + 2))
	queries := make([]geo.Coordinate, 256)
	for i := range queries {
		base := entries[rng.Intn(len(entries))].Coord
		queries[i] = geo.Coordinate{
			Lat: base.Lat + (rng.Float64()-0.5)*0.02,
			Lng: base.Lng + (rng.Float64()-0.5)*0.02,
		}
	}
	return entries, queries
}

// linearKNearest is the scan the index replaced: distance to every
// entry, sort by (distance, ID), keep k.
func linearKNearest(entries []geoindex.Entry, q geo.Coordinate, k int) []geoindex.Result {
	res := make([]geoindex.Result, len(entries))
	for i, e := range entries {
		res[i] = geoindex.Result{Entry: e, DistanceFeet: q.DistanceFeet(e.Coord)}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].DistanceFeet != res[j].DistanceFeet {
			return res[i].DistanceFeet < res[j].DistanceFeet
		}
		return res[i].ID < res[j].ID
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

func BenchmarkNearest(b *testing.B) {
	const k = 8
	entries, queries := benchGeoEntries(b, 512)
	ix := geoindex.Build(entries)

	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := ix.KNearest(queries[i%len(queries)], k)
			if len(hits) != k {
				b.Fatalf("got %d hits, want %d", len(hits), k)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := linearKNearest(entries, queries[i%len(queries)], k)
			if len(hits) != k {
				b.Fatalf("got %d hits, want %d", len(hits), k)
			}
		}
	})
}

func BenchmarkWarmStart(b *testing.B) {
	const (
		coords = 16
		size   = 32
	)
	study, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: coords, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold_render", func(b *testing.B) {
		// Render the corpus with no store behind the cache: every
		// frame costs a rasterization, the price the store removes.
		for i := 0; i < b.N; i++ {
			cache := dataset.NewRenderCache(study)
			for idx := 0; idx < study.Len(); idx++ {
				if _, err := cache.Example(idx, size); err != nil {
					b.Fatal(err)
				}
			}
			if got := cache.Renders(); got != int64(study.Len()) {
				b.Fatalf("cold cache rendered %d frames, want %d", got, study.Len())
			}
		}
	})

	b.Run("warm_store", func(b *testing.B) {
		dir := b.TempDir()
		fill, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cache := dataset.NewPersistentRenderCache(study, fill)
		for idx := 0; idx < study.Len(); idx++ {
			if _, err := cache.Example(idx, size); err != nil {
				b.Fatal(err)
			}
		}
		if err := fill.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := store.Open(dir, store.Options{ReadOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			warm := dataset.NewPersistentRenderCache(study, st)
			for idx := 0; idx < study.Len(); idx++ {
				if _, err := warm.Example(idx, size); err != nil {
					b.Fatal(err)
				}
			}
			if got := warm.Renders(); got != 0 {
				b.Fatalf("warm start rendered %d frames, want 0", got)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
