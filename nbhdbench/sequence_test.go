package main

import (
	"context"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestMissSequenceIsASeededPermutation(t *testing.T) {
	a, b := missSequence(7, serveFrames), missSequence(7, serveFrames)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different sequences")
	}
	if slices.Equal(a, missSequence(8, serveFrames)) {
		t.Fatal("seeds 7 and 8 gave the same sequence")
	}
	sorted := slices.Sorted(slices.Values(a))
	for i, f := range sorted {
		if f != i {
			t.Fatalf("sequence is not a permutation of %d frames", serveFrames)
		}
	}
}

func TestZipfSequence(t *testing.T) {
	const n = zipfRoundRequests
	a, b := zipfSequence(3, serveFrames, n), zipfSequence(3, serveFrames, n)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different sequences")
	}
	if slices.Equal(a, zipfSequence(4, serveFrames, n)) {
		t.Fatal("seeds 3 and 4 gave the same sequence")
	}
	debut := map[int]int{}
	counts := map[int]int{}
	for i, f := range a {
		if f < 0 || f >= serveFrames {
			t.Fatalf("request %d names frame %d", i, f)
		}
		if d, ok := debut[f]; !ok {
			debut[f] = i
		} else if i-d < zipfDebutGap {
			t.Fatalf("frame %d repeats %d requests after its debut", f, i-d)
		}
		counts[f]++
	}
	// Every round misses equally often, and fits the gateway's default
	// 1,024-entry LRU: evictions would make the backend's item count
	// depend on timing.
	for seed := int64(0); seed < 50; seed++ {
		seen := map[int]bool{}
		for _, f := range zipfSequence(seed, serveFrames, n) {
			seen[f] = true
		}
		if len(seen) != zipfDistinct {
			t.Fatalf("seed %d touches %d distinct frames, want %d", seed, len(seen), zipfDistinct)
		}
	}
	// Skewed: the most requested frame takes a large share, and it is
	// the same frame for every seed.
	top := func(seq []int) int {
		c := map[int]int{}
		best := -1
		for _, f := range seq {
			c[f]++
			if best < 0 || c[f] > c[best] {
				best = f
			}
		}
		return best
	}
	if share := float64(counts[top(a)]) / n; share < 0.1 {
		t.Fatalf("top frame takes %.2f of requests, want a Zipf head", share)
	}
	if top(a) != top(zipfSequence(99, serveFrames, n)) {
		t.Fatal("the popularity ranking moved with the seed")
	}
}

func TestDriveRecordsEveryRequestOnce(t *testing.T) {
	s := &serveBench{clients: 4, seq: []int{2, 0, 1, 2, 2, 0, 1, 1, 0, 2}}
	s.bodies = [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	var mu sync.Mutex
	served := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		served++
		mu.Unlock()
		w.Write(body)
	})
	reqs := s.drive(context.Background(), h, time.Now())
	if served != len(s.seq) || len(reqs) != len(s.seq) {
		t.Fatalf("served %d requests, recorded %d, want %d", served, len(reqs), len(s.seq))
	}
	for i, rq := range reqs {
		if rq.frame != s.seq[i] || rq.status != http.StatusOK || string(rq.body) != string(s.bodies[rq.frame]) || rq.end < rq.start {
			t.Fatalf("request %d = %+v, want frame %d answered with its body", i, rq, s.seq[i])
		}
	}
}
