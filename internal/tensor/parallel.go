package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// One owner of parallelism. Every fan-out in the compute layer — a
// GEMM's output blocks here, a convolution's batch samples in nn — goes
// through claim and fanOut, which count the workers running. A call
// made while every P already runs one of them runs inline on its
// caller, so a GEMM called from inside a sample worker, or a second
// batch arriving while the first holds both cores, adds no goroutines.
// Workers take units one at a time (Units), so a worker whose P is
// slowed — by the GC, or by the host — takes fewer. Splitting never
// changes results: every user partitions only across independent
// outputs.

// parallelThreshold is the flop count below which work runs on the
// calling goroutine: under it, goroutine startup costs more than the
// math.
const parallelThreshold = 1 << 16

// running counts the workers that fanned-out calls hold, each caller
// counted among its own.
var running atomic.Int32

// worthSplitting reports whether n independent units costing cost
// flops in all are worth more than one worker.
func worthSplitting(n, cost int) bool {
	return n > 1 && cost >= parallelThreshold
}

// claim reserves up to n workers, the caller among them, from the Ps no
// worker holds, and returns how many it reserved. 1 means run inline,
// and reserves nothing. Callers test it before building the closure
// fanOut takes, so an inline GEMM allocates nothing.
func claim(n, cost int) int {
	if !worthSplitting(n, cost) {
		return 1
	}
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		busy := running.Load()
		w := min(procs-busy, int32(n))
		if w <= 1 {
			return 1
		}
		if running.CompareAndSwap(busy, busy+w) {
			return int(w)
		}
	}
}

// Units hands the units of one fan-out to its workers one at a time,
// in ascending order, each to whichever worker asks first.
type Units struct {
	next atomic.Int32
	n    int32
}

// Next claims the next unit; ok is false once every unit is claimed.
func (u *Units) Next() (i int, ok bool) {
	i = int(u.next.Add(1)) - 1
	return i, i < int(u.n)
}

// fanOut runs f on w workers, the caller among them, all taking units
// from u, then releases the w workers claim reserved and returns the
// first error, in worker order.
func fanOut(w int, u *Units, f func(u *Units) error) error {
	defer running.Add(-int32(w))
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(u)
		}()
	}
	errs[0] = f(u)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Parallel runs f on as many workers as there are Ps no worker holds,
// at most n, each taking units of [0, n) from the shared Units until
// none are left; the units cost cost flops in all. It returns the first
// error a worker reports. Small problems, and calls made while every P
// runs a worker, run inline: f takes every unit on the caller. Each
// unit's work must touch memory no other unit touches.
func Parallel(n, cost int, f func(u *Units) error) error {
	u := &Units{n: int32(n)}
	w := claim(n, cost)
	if w <= 1 {
		return f(u)
	}
	return fanOut(w, u, f)
}
