package tensor

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// take drains u, returning the units it got.
func take(u *Units) []int {
	var got []int
	for i, ok := u.Next(); ok; i, ok = u.Next() {
		got = append(got, i)
	}
	return got
}

// TestParallelOneLevel pins the helper's rule at 2 Ps: a large problem
// runs on two workers that share its units, each unit taken once; a
// call made from inside a worker — both Ps already run one — runs
// inline, its one worker taking every unit in order; small problems
// never split; and every claimed worker is released on return.
func TestParallelOneLevel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const big = parallelThreshold
	var (
		mu      sync.Mutex
		workers int
		taken   = map[int]int{}
		nested  [][]int
	)
	err := Parallel(64, big, func(u *Units) error {
		mu.Lock()
		workers++
		mu.Unlock()
		for i, ok := u.Next(); ok; i, ok = u.Next() {
			var inner []int
			if err := Parallel(8, big, func(u *Units) error {
				inner = append(inner, take(u)...)
				return nil
			}); err != nil {
				return err
			}
			mu.Lock()
			taken[i]++
			nested = append(nested, inner)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if workers != 2 {
		t.Errorf("%d workers ran, want 2", workers)
	}
	for i := 0; i < 64; i++ {
		if taken[i] != 1 {
			t.Errorf("unit %d taken %d times, want once", i, taken[i])
		}
	}
	for _, inner := range nested {
		if len(inner) != 8 || inner[0] != 0 || inner[7] != 7 {
			t.Fatalf("a nested call ran units %v, want 0..7 inline", inner)
		}
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d workers still claimed after return", n)
	}
	calls := 0
	if err := Parallel(4, big-1, func(u *Units) error {
		calls++
		if got := take(u); len(got) != 4 {
			t.Errorf("small problem's worker took %v, want all 4 units", got)
		}
		return nil
	}); err != nil || calls != 1 {
		t.Errorf("small problem: %d workers, err %v; want one inline", calls, err)
	}
	boom := errors.New("boom")
	if err := Parallel(4, big, func(u *Units) error {
		take(u)
		return boom
	}); !errors.Is(err, boom) {
		t.Errorf("Parallel returned %v, want the worker's error", err)
	}
}
