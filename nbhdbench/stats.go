package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail: a p99 over 200 samples rests on two
// values and moves with every hiccup of a shared host.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first. p99 is the highest: beyond it a closed-loop serve run measures
// the host's scheduler more than the gateway.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond of n samples strictly beyond its rank; ok is false when n is
// too small for any candidate.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rankOf(c, n) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(p, len(xs))-1]
}

// median is the 50th nearest-rank percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// latencySummary is the end-to-end timing of one run's ops.
type latencySummary struct {
	N      int     `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_percentile"`
	TailMS float64 `json:"tail_ms"`
	// TailOfSegments marks TailMS as the median of per-segment tails.
	TailOfSegments bool    `json:"tail_of_segments"`
	MaxMS          float64 `json:"max_ms"`
}

// summarize reports the median and the tail of op durations. Workloads
// size their runs to at least minOps ops, so a tail always exists.
func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	s := latencySummary{N: len(ms)}
	if len(ms) == 0 {
		return s
	}
	s.P50MS = percentile(ms, 50)
	p, ok := tailPercentile(len(ms))
	if !ok {
		p = 100
	}
	s.TailP = p
	s.TailMS = percentile(ms, p)
	s.MaxMS = ms[len(ms)-1] // percentile sorted ms in place
	return s
}

// minOps is the smallest op count a run makes: the least for which the
// median still has minBeyond samples beyond it.
const minOps = 2 * minBeyond
