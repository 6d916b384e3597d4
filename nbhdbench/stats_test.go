package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99, true}, // p99 is the highest candidate
		{1000, 99, true},   // rank 990 leaves exactly 10 beyond
		{999, 95, true},    // rank 990 leaves 9
		{200, 95, true},    // rank 190 leaves 10
		{199, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true}, // rank 10 leaves 10: minOps
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.N != 1000 || s.P50MS != 500 || s.TailP != 99 || s.TailMS != 990 {
		t.Fatalf("summarize(1..1000 ms) = %+v", s)
	}
	// Too few samples for any tail: report the maximum.
	s = summarize([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if s.P50MS != 2 || s.TailP != 100 || s.TailMS != 3 {
		t.Fatalf("summarize of 3 samples = %+v", s)
	}
}

func TestOpCountNeverBelowMinOps(t *testing.T) {
	if n := opCount(1, time.Second); n != minOps {
		t.Fatalf("opCount(1s budget, 1s ops) = %d, want %d", n, minOps)
	}
	if n := opCount(60, time.Second); n != 60 {
		t.Fatalf("opCount(60s budget, 1s ops) = %d, want 60", n)
	}
	if n, ok := tailPercentile(minOps); !ok || n != 50 {
		t.Fatalf("a run of minOps ops has no median tail")
	}
}

func TestPassLatencyTakesMedianOfSegmentTails(t *testing.T) {
	round := func() segment {
		var ops []time.Duration
		for i := 1; i <= 1000; i++ {
			ops = append(ops, time.Duration(i)*time.Millisecond)
		}
		return segment{ops: ops}
	}
	// Three rounds whose p99 is 990 ms, one of them stalled for 15 ops:
	// its own p99 is 5 s and the p99 over all ops 996 ms, but the
	// median round's is still 990 ms.
	p := &pass{segments: []segment{round(), round(), round()}}
	for i := 0; i < 15; i++ {
		p.segments[1].ops[i] = 5 * time.Second
	}
	s := p.latency()
	if !s.TailOfSegments || s.TailMS != 990 || s.N != 3000 {
		t.Fatalf("latency = %+v, want the median round's p99 of 990 ms", s)
	}
	// Ops too few for a per-segment tail: the tail spans every op.
	p = &pass{}
	for i := 1; i <= 20; i++ {
		p.segments = append(p.segments, segment{ops: []time.Duration{time.Duration(i) * time.Millisecond}})
	}
	if s := p.latency(); s.TailOfSegments || s.TailP != 50 || s.TailMS != 10 {
		t.Fatalf("latency of 20 one-op segments = %+v", s)
	}
}

func TestOverheadComparesMedianSegments(t *testing.T) {
	p := &pass{segments: []segment{
		{wall: time.Second}, {wall: 1100 * time.Millisecond, traced: true},
		{wall: 3 * time.Second}, {wall: 1100 * time.Millisecond, traced: true},
		{wall: time.Second}, {wall: 1100 * time.Millisecond, traced: true},
	}}
	if got := p.overheadPct(); got < 9.99 || got > 10.01 {
		t.Fatalf("overheadPct = %v, want 10", got)
	}
}
