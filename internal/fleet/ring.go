package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVirtualNodes is how many ring points each replica contributes
// when the config does not say otherwise. At 256 points per replica the
// per-replica share of a large key population lands within a few
// percent of uniform (see TestRingDistribution), which keeps every
// replica's coalescer and LRU equally warm.
const defaultVirtualNodes = 256

// Ring is a consistent-hash ring over replica IDs: every member
// contributes a fixed number of virtual points, and a key is owned by
// the member whose point follows the key's hash clockwise. Adding or
// removing a member moves only the keys adjacent to that member's
// points — about 1/N of the key space — so a replica failure reshuffles
// almost nothing and every surviving replica's cache stays hot.
//
// Membership is health: the supervisor adds a replica when it passes
// health checks and removes it when it fails them or starts draining,
// so Successors only ever names replicas believed routable.
// All methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	member map[string]bool
	gen    uint64
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds an empty ring; vnodes <= 0 takes the default.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, member: make(map[string]bool)}
}

// hashKey positions a shard key (or a virtual node label) on the ring:
// FNV-1a for the byte walk, then a 64-bit avalanche finalizer. The
// finalizer matters: ring inputs are near-identical strings with
// sequential suffixes ("replica-0#1", "idx:41"), and raw FNV-1a maps
// those to correlated positions — enough to skew a 4-replica ring 60%
// off uniform. Mixing restores the spread TestRingDistribution pins.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer: every input bit flips each
// output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add admits a replica to the ring (a no-op when already present) and
// bumps the generation.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[id] {
		return
	}
	r.member[id] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", id, v)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.gen++
}

// Remove takes a replica out of the ring (a no-op when absent) and
// bumps the generation. Only keys owned by the removed replica change
// owners; everything else keeps its placement.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[id] {
		return
	}
	delete(r.member, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.gen++
}

// Members returns the current replica IDs, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for id := range r.member {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Generation counts membership changes; the router exposes it so
// operators (and the failover tests) can watch the ring react to
// replica health.
func (r *Ring) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Successors returns up to n distinct replicas in ring order starting
// at the key's owner — the failover sequence: when the owner is down,
// the next member in ring order takes the key, which is exactly where
// the key would have lived had the owner never existed (so a later
// Remove of the dead owner does not move the key again).
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}
