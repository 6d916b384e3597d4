package main

import "testing"

func TestCheckRepeat(t *testing.T) {
	dir := t.TempDir()
	first := &pass{accuracy: 0.9, work: map[string]float64{"items": 655, "rounds": 2}}
	if d, err := checkRepeat(dir, "w", 1, 6, first); err != nil || len(d) != 0 {
		t.Fatalf("first run: %v, %v", d, err)
	}
	same := &pass{accuracy: 0.9, work: map[string]float64{"items": 655, "rounds": 2}}
	if d, err := checkRepeat(dir, "w", 1, 6, same); err != nil || len(d) != 0 {
		t.Fatalf("identical run: %v, %v", d, err)
	}
	drift := &pass{accuracy: 0.91, work: map[string]float64{"items": 656, "rounds": 2}}
	d, err := checkRepeat(dir, "w", 1, 6, drift)
	if err != nil || len(d) != 2 {
		t.Fatalf("drifted run: %v, %v; want an item-count and an accuracy difference", d, err)
	}
	// Another seed is another record.
	if d, err := checkRepeat(dir, "w", 2, 6, drift); err != nil || len(d) != 0 {
		t.Fatalf("new seed: %v, %v", d, err)
	}
}
