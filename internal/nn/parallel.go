package nn

import (
	"runtime"
	"sync"
)

// parallelWorkThreshold is the per-call element count below which
// per-sample loops run single-threaded: under it, goroutine startup
// costs more than the work.
const parallelWorkThreshold = 1 << 14

// parallelSamples runs f over [0, n) batch samples, fanning contiguous
// sample ranges across GOMAXPROCS workers when the total element count
// makes it worthwhile, and returns the first error a worker reports.
// Each sample's work must touch disjoint memory.
func parallelSamples(n, elems int, f func(s0, s1 int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if elems < parallelWorkThreshold || workers <= 1 || n <= 1 {
		return f(0, n)
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		s0 := w * chunk
		s1 := s0 + chunk
		if s1 > n {
			s1 = n
		}
		if s0 >= s1 {
			break
		}
		wg.Add(1)
		go func(s0, s1 int) {
			defer wg.Done()
			if err := f(s0, s1); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(s0, s1)
	}
	wg.Wait()
	return firstErr
}
