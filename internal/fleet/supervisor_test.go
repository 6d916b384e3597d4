package fleet_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbhd/internal/fleet"
)

// fakeReplica is a supervised stand-in: an httptest server whose
// /healthz answer flips atomically, plus hooks that record what the
// supervisor did and when.
type fakeReplica struct {
	id      string
	ts      *httptest.Server
	healthy atomic.Bool
	onDrain func(id string)

	mu      sync.Mutex
	drained bool
	closed  bool
}

func newFakeReplica(id string) *fakeReplica {
	f := &fakeReplica{id: id}
	f.healthy.Store(true)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && f.healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	return f
}

func (f *fakeReplica) ID() string  { return f.id }
func (f *fakeReplica) URL() string { return f.ts.URL }

func (f *fakeReplica) Drain(ctx context.Context) error {
	if f.onDrain != nil {
		f.onDrain(f.id)
	}
	f.mu.Lock()
	f.drained = true
	f.mu.Unlock()
	return nil
}

func (f *fakeReplica) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		f.ts.Close()
	}
	return nil
}

// eventually polls cond for up to 3 seconds — generous against the
// 20ms poll interval these tests configure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// startFakeFleet boots a supervisor over n fake replicas with a fast
// poll loop.
func startFakeFleet(t *testing.T, n int) (*fleet.Supervisor, []*fakeReplica) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	cfg := fleet.Config{
		Replicas:       n,
		HealthPollMS:   20,
		FailAfter:      2,
		StartTimeoutMS: 5000,
	}
	sup := fleet.NewSupervisor(cfg, func(ctx context.Context, idx int, id string) (fleet.Replica, error) {
		fakes[idx] = newFakeReplica(id)
		return fakes[idx], nil
	})
	if err := sup.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = sup.Close() })
	return sup, fakes
}

// TestSupervisorEvictsAndReadmits: consecutive failed polls remove a
// replica from the ring (with a generation bump the router's /metricsz
// exposes); a healthy poll puts it back.
func TestSupervisorEvictsAndReadmits(t *testing.T) {
	sup, fakes := startFakeFleet(t, 3)
	ring := sup.Ring()
	if ring.Len() != 3 {
		t.Fatalf("ring has %d members after start, want 3", ring.Len())
	}
	genAfterStart := ring.Generation()
	if genAfterStart != 3 {
		t.Fatalf("ring generation %d after 3 admissions", genAfterStart)
	}

	victim := fakes[1]
	victim.healthy.Store(false)
	eventually(t, "unhealthy replica evicted from ring", func() bool {
		return !slices.Contains(ring.Members(), victim.id)
	})
	if g := ring.Generation(); g != genAfterStart+1 {
		t.Fatalf("generation %d after eviction, want %d", g, genAfterStart+1)
	}
	if ring.Len() != 2 {
		t.Fatalf("ring has %d members after eviction, want 2", ring.Len())
	}

	victim.healthy.Store(true)
	eventually(t, "recovered replica re-admitted", func() bool {
		return slices.Contains(ring.Members(), victim.id)
	})
	if g := ring.Generation(); g != genAfterStart+2 {
		t.Fatalf("generation %d after re-admission, want %d", g, genAfterStart+2)
	}
}

// TestSupervisorSingleBlipForgiven: FailAfter=2 means one failed poll
// does not evict — the router's per-request failover covers one blip
// without churning the ring.
func TestSupervisorSingleBlipForgiven(t *testing.T) {
	sup, fakes := startFakeFleet(t, 2)
	ring := sup.Ring()
	gen := ring.Generation()

	// Fail exactly one poll window, then recover: flip unhealthy and
	// back within one interval.
	fakes[0].healthy.Store(false)
	time.Sleep(25 * time.Millisecond)
	fakes[0].healthy.Store(true)
	time.Sleep(200 * time.Millisecond)
	if !slices.Contains(ring.Members(), fakes[0].id) {
		t.Fatal("one blip evicted the replica; FailAfter=2 should forgive it")
	}
	// The ring may legitimately have churned if the blip spanned two
	// polls; what must not happen is a lasting eviction.
	if ring.Len() != 2 {
		t.Fatalf("ring has %d members, want 2 (generation %d -> %d)", ring.Len(), gen, ring.Generation())
	}
}

// TestSupervisorDrainOrdering is the drain contract: when DrainReplica
// invokes the replica's own Drain, the replica must ALREADY be out of
// the ring, so no new request can route to a dying member.
func TestSupervisorDrainOrdering(t *testing.T) {
	sup, fakes := startFakeFleet(t, 3)
	ring := sup.Ring()

	id := fakes[2].id
	inRingAtDrain := true
	fakes[2].onDrain = func(id string) { inRingAtDrain = slices.Contains(ring.Members(), id) }
	if err := sup.DrainReplica(context.Background(), id); err != nil {
		t.Fatalf("DrainReplica: %v", err)
	}
	if inRingAtDrain {
		t.Fatal("replica was still in the ring when its Drain ran; ring removal must come first")
	}
	fakes[2].mu.Lock()
	drained := fakes[2].drained
	fakes[2].mu.Unlock()
	if !drained {
		t.Fatal("DrainReplica never called the replica's Drain")
	}

	// A retired replica stays out even though its /healthz is green —
	// the poll loop must not resurrect a deliberate drain.
	time.Sleep(150 * time.Millisecond)
	if slices.Contains(ring.Members(), id) {
		t.Fatal("poll loop re-admitted a deliberately drained replica")
	}
	if _, ok := sup.URLOf(id); !ok {
		t.Fatal("drained replica vanished from the replica table; metrics history needs it")
	}
}

// TestSupervisorKillLeavesRingToThePollLoop: KillReplica is the
// unannounced failure — it must NOT touch the ring synchronously
// (that's the router's failover + the poll loop's job), and the poll
// loop must evict the corpse shortly after.
func TestSupervisorKillLeavesRingToThePollLoop(t *testing.T) {
	sup, fakes := startFakeFleet(t, 3)
	ring := sup.Ring()

	id := fakes[0].id
	if err := sup.KillReplica(context.Background(), id); err != nil {
		t.Fatalf("KillReplica: %v", err)
	}
	// Immediately after the kill the ring may still list the corpse —
	// that window is exactly what per-request failover absorbs. The
	// poll loop then notices and evicts.
	eventually(t, "poll loop evicted the killed replica", func() bool {
		return !slices.Contains(ring.Members(), id)
	})
	fakes[0].mu.Lock()
	closed := fakes[0].closed
	fakes[0].mu.Unlock()
	if !closed {
		t.Fatal("KillReplica did not close the replica")
	}
}

// TestSupervisorStartFailure: a spawn error closes the already-spawned
// replicas and reports which replica failed.
func TestSupervisorStartFailure(t *testing.T) {
	var spawned []*fakeReplica
	cfg := fleet.Config{Replicas: 3, HealthPollMS: 20, StartTimeoutMS: 2000}
	sup := fleet.NewSupervisor(cfg, func(ctx context.Context, idx int, id string) (fleet.Replica, error) {
		if idx == 2 {
			return nil, context.DeadlineExceeded
		}
		f := newFakeReplica(id)
		spawned = append(spawned, f)
		return f, nil
	})
	if err := sup.Start(context.Background()); err == nil {
		t.Fatal("Start succeeded despite a failing spawn")
	}
	for _, f := range spawned {
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if !closed {
			t.Fatalf("replica %s leaked after failed Start", f.id)
		}
	}
}
