package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real shard keys, not random strings.
		keys[i] = fmt.Sprintf("cnn|f32|SL,SW,SR,MR,PL,AP|en|par|0|0|0|idx:%d", i)
	}
	return keys
}

func owners(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		succ := r.Successors(k, 1)
		if len(succ) != 1 {
			t.Fatalf("Successors(%q, 1) = %v: empty ring", k, succ)
		}
		out[k] = succ[0]
	}
	return out
}

// TestRingDistribution: with the default virtual-node count, 10k keys
// spread across 4 replicas within ±15% of uniform — the property that
// keeps every replica's coalescer and LRU equally loaded.
func TestRingDistribution(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(ReplicaID(i))
	}
	keys := ringKeys(10000)
	counts := make(map[string]int)
	for _, k := range keys {
		succ := r.Successors(k, 1)
		if len(succ) != 1 {
			t.Fatal("empty ring")
		}
		counts[succ[0]]++
	}
	if len(counts) != 4 {
		t.Fatalf("keys landed on %d replicas, want 4: %v", len(counts), counts)
	}
	uniform := float64(len(keys)) / 4
	for id, n := range counts {
		dev := (float64(n) - uniform) / uniform
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("replica %s owns %d keys, %.1f%% off uniform (limit ±15%%); all: %v",
				id, n, 100*dev, counts)
		}
	}
}

// TestRingMinimalMovementAdd: growing 4 → 5 replicas remaps about 1/5
// of the keys, and every remapped key lands on the new replica —
// consistent hashing's defining property (a modulo shard would remap
// ~80% here).
func TestRingMinimalMovementAdd(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(ReplicaID(i))
	}
	keys := ringKeys(10000)
	before := owners(t, r, keys)
	r.Add(ReplicaID(4))
	after := owners(t, r, keys)

	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if after[k] != ReplicaID(4) {
				t.Fatalf("key %q moved %s -> %s, but only the new replica may gain keys",
					k, before[k], after[k])
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.30 {
		t.Errorf("add moved %.1f%% of keys; want ~20%% (1/N), outside [10%%, 30%%]", 100*frac)
	}
}

// TestRingMinimalMovementRemove: removing a replica remaps exactly its
// own keys; every other key keeps its owner bit-for-bit.
func TestRingMinimalMovementRemove(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(ReplicaID(i))
	}
	keys := ringKeys(10000)
	before := owners(t, r, keys)
	victim := ReplicaID(2)
	r.Remove(victim)
	after := owners(t, r, keys)

	for _, k := range keys {
		switch {
		case before[k] == victim:
			if after[k] == victim {
				t.Fatalf("key %q still owned by removed replica", k)
			}
		case before[k] != after[k]:
			t.Fatalf("key %q moved %s -> %s though its owner was not removed",
				k, before[k], after[k])
		}
	}
}

// TestRingFailoverMatchesRemoval: a key's first successor is exactly
// where the key lands if the owner is removed — so router failover and
// supervisor eviction agree on placement and the successor's cache is
// already warm when the eviction happens.
func TestRingFailoverMatchesRemoval(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(ReplicaID(i))
	}
	keys := ringKeys(500)
	succ := make(map[string]string, len(keys))
	var victim = ReplicaID(1)
	for _, k := range keys {
		cands := r.Successors(k, 2)
		if cands[0] == victim {
			succ[k] = cands[1]
		}
	}
	r.Remove(victim)
	for k, want := range succ {
		if got := r.Successors(k, 1)[0]; got != want {
			t.Fatalf("key %q: failover successor %s but post-removal owner %s", k, want, got)
		}
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	r := NewRing(0)
	if s := r.Successors("k", 3); s != nil {
		t.Fatalf("empty ring returned successors %v", s)
	}
	for i := 0; i < 3; i++ {
		r.Add(ReplicaID(i))
	}
	s := r.Successors("some-key", 5)
	if len(s) != 3 {
		t.Fatalf("got %d successors, want all 3 members", len(s))
	}
	seen := map[string]bool{}
	for _, id := range s {
		if seen[id] {
			t.Fatalf("duplicate successor %s in %v", id, s)
		}
		seen[id] = true
	}
	if owner := r.Successors("some-key", 1); owner[0] != s[0] {
		t.Fatalf("Successors(k, 5)[0] = %s, Successors(k, 1) = %v", s[0], owner)
	}
}

func TestRingGenerationAndIdempotence(t *testing.T) {
	r := NewRing(0)
	if g := r.Generation(); g != 0 {
		t.Fatalf("fresh ring generation %d", g)
	}
	r.Add("a")
	r.Add("a") // no-op
	if g := r.Generation(); g != 1 {
		t.Fatalf("generation %d after one effective add", g)
	}
	r.Remove("b") // no-op
	r.Remove("a")
	if g := r.Generation(); g != 2 {
		t.Fatalf("generation %d after add+remove", g)
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after removal: %v", r.Members())
	}
}
