package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/store"
)

// RenderCache memoizes rendered examples per (frame index, size) for one
// study, and is the evaluation walk's frame source. Its memory tier
// (Example, CondExample) renders each (frame, size) exactly once,
// including under concurrent access (a per-slot sync.Once dedupes
// simultaneous misses); training and the serving gateway fill it.
// RenderInto copies a frame into a caller's buffer and keeps nothing.
//
// A cache built with NewPersistentRenderCache adds a second, durable
// tier: misses consult the frame store before rendering (a warm start
// serves the whole corpus from the memory-mapped store with zero
// renders), and fresh renders are persisted so the next process never
// repeats them — render once, serve forever. Store frames are
// bit-identical to fresh renders (the store round-trips raw float32
// pixels losslessly), so the tiers are interchangeable.
//
// Returned examples alias the cached Image (callers must treat the
// pixels as read-only) but carry their own copy of the Objects slice,
// matching Study.RenderExamples' habit of handing each caller a
// mutation-safe ground-truth list. Render is deterministic in the
// scene, so a cached example is bit-identical to a fresh
// Study.RenderExamples call.
type RenderCache struct {
	study *Study
	// persist is the optional durable tier; nil for RAM-only caches.
	persist *store.Store

	mu    sync.Mutex
	slots map[slotKey][]*renderSlot

	renders   atomic.Int64
	storeHits atomic.Int64
}

// slotKey addresses one cached rendition plane: a resolution plus the
// capture condition applied on top of the clean render ("" = clean).
// The persistent store only ever holds the clean plane — conditions are
// cheap pure functions of it, so degraded frames are derived per
// process, never persisted, and the store stays condition-agnostic.
type slotKey struct {
	size int
	cond string
}

type renderSlot struct {
	once sync.Once
	ex   atomic.Pointer[Example]
	err  error
}

// NewRenderCache builds an empty cache over the study.
func NewRenderCache(s *Study) *RenderCache {
	return &RenderCache{study: s, slots: make(map[slotKey][]*renderSlot)}
}

// NewPersistentRenderCache builds a cache whose misses first consult
// (and whose fresh renders populate) the given frame store. The caller
// keeps ownership of the store and must keep it open for the cache's
// lifetime. A nil store degrades to a RAM-only cache. Only clean frames
// flow through the store; capture conditions apply after the persistent
// tier.
func NewPersistentRenderCache(s *Study, st *store.Store) *RenderCache {
	return &RenderCache{study: s, persist: st, slots: make(map[slotKey][]*renderSlot)}
}

// Study returns the corpus the cache renders from.
func (c *RenderCache) Study() *Study { return c.study }

// Renders reports how many render.Render calls the cache has issued —
// the denominator for cache-effectiveness assertions. Frames served
// from the persistent store do not count: a warm start over a fully
// populated store reports zero renders.
func (c *RenderCache) Renders() int64 { return c.renders.Load() }

// StoreHits reports how many frames were served from the persistent
// store instead of being rendered.
func (c *RenderCache) StoreHits() int64 { return c.storeHits.Load() }

// frameKey derives the content address of frame idx at the given
// resolution — the values that fully determine its pixels.
func (c *RenderCache) frameKey(idx, size int) store.Key {
	sc := c.study.Frames[idx].Scene
	return store.FrameKey(sc.Point.Coordinate, sc.Heading, size, sc.Seed)
}

func (c *RenderCache) slot(idx int, key slotKey) (*renderSlot, error) {
	if idx < 0 || idx >= len(c.study.Frames) {
		return nil, fmt.Errorf("dataset: frame index %d out of range [0,%d)", idx, len(c.study.Frames))
	}
	if key.size <= 0 {
		return nil, fmt.Errorf("dataset: render size must be positive, got %d", key.size)
	}
	c.mu.Lock()
	slots := c.slots[key]
	if slots == nil {
		slots = make([]*renderSlot, len(c.study.Frames))
		c.slots[key] = slots
	}
	if slots[idx] == nil {
		slots[idx] = &renderSlot{}
	}
	s := slots[idx]
	c.mu.Unlock()
	return s, nil
}

// resolveCondition maps a caller's condition override to the cache
// plane: the clean plane is "", any other condition names its own.
func (c *RenderCache) resolveCondition(cond string) string {
	if cond = ResolveCondition(c.study.Condition, cond); cond == ConditionClean {
		return ""
	}
	return cond
}

// Example returns the cached render of one frame at size×size pixels
// under the study's capture condition, rendering it on first use.
// Concurrent calls for the same (frame, size) render exactly once; the
// loser blocks until the winner finishes.
func (c *RenderCache) Example(idx, size int) (Example, error) {
	return c.CondExample(idx, size, "")
}

// CondExample is Example with an evaluation-time condition override:
// empty inherits the study's condition, ConditionClean forces clean
// frames, any other registered condition degrades the cached clean
// render under it (derived once per (frame, size, condition), cached,
// byte-identical to Study.RenderExamples on a corpus built with that
// condition). The clean base render — and only it — flows through the
// persistent store tier.
func (c *RenderCache) CondExample(idx, size int, cond string) (Example, error) {
	s, err := c.condSlot(idx, size, cond)
	if err != nil {
		return Example{}, err
	}
	ex := s.ex.Load()
	objs := make([]scene.Object, len(ex.Objects))
	copy(objs, ex.Objects)
	return Example{ID: ex.ID, Image: ex.Image, Objects: objs}, nil
}

// condSlot resolves the slot of one frame at size×size under a condition
// override (see CondExample), deriving a degraded rendition from the
// clean one on first use.
func (c *RenderCache) condSlot(idx, size int, cond string) (*renderSlot, error) {
	eff := c.resolveCondition(cond)
	if eff == "" {
		return c.cleanSlot(idx, size)
	}
	if !ValidCondition(eff) {
		return nil, fmt.Errorf("dataset: unknown capture condition %q (have %v)", eff, Conditions())
	}
	s, err := c.slot(idx, slotKey{size: size, cond: eff})
	if err != nil {
		return nil, err
	}
	s.once.Do(func() {
		base, err := c.cleanSlot(idx, size)
		if err != nil {
			s.err = err
			return
		}
		ex := base.ex.Load()
		img, err := c.study.conditioned(ex.ID, eff, ex.Image, nil)
		if err != nil {
			s.err = err
			return
		}
		s.ex.Store(&Example{ID: ex.ID, Image: img, Objects: c.study.Frames[idx].Scene.Objects})
	})
	return s, s.err
}

// cleanSlot resolves the clean rendition plane: persistent store first,
// then a fresh render (persisted for the next process when a store is
// attached).
func (c *RenderCache) cleanSlot(idx, size int) (*renderSlot, error) {
	s, err := c.slot(idx, slotKey{size: size})
	if err != nil {
		return nil, err
	}
	s.once.Do(func() {
		img, err := c.load(idx, size, nil)
		if err != nil {
			s.err = err
			return
		}
		sc := c.study.Frames[idx].Scene
		s.ex.Store(&Example{ID: sc.ID, Image: img, Objects: sc.Objects})
	})
	return s, s.err
}

// load returns frame idx's clean render at size×size: from the
// persistent store when it holds the frame, otherwise rendered (and then
// persisted, when a store is attached). It writes into dst when dst is
// not nil, and returns a fresh image otherwise.
func (c *RenderCache) load(idx, size int, dst *render.Image) (*render.Image, error) {
	sc := c.study.Frames[idx].Scene
	key := c.frameKey(idx, size)
	if c.persist != nil {
		img, ok, err := c.persist.Get(key)
		if err != nil {
			return nil, fmt.Errorf("dataset: store get %s: %w", sc.ID, err)
		}
		if ok {
			if img.W != size || img.H != size {
				return nil, fmt.Errorf("dataset: store holds %s at %dx%d, want %dx%d", sc.ID, img.W, img.H, size, size)
			}
			c.storeHits.Add(1)
			if dst == nil {
				return img, nil
			}
			copy(dst.Pix, img.Pix)
			return dst, nil
		}
	}
	if dst == nil {
		var err error
		if dst, err = render.NewImage(size, size); err != nil {
			return nil, err
		}
	}
	if err := render.RenderInto(sc, dst); err != nil {
		return nil, fmt.Errorf("dataset: render %s: %w", sc.ID, err)
	}
	c.renders.Add(1)
	if c.persist != nil {
		if err := c.persist.Put(key, dst); err != nil {
			return nil, fmt.Errorf("dataset: store put %s: %w", sc.ID, err)
		}
	}
	return dst, nil
}

// RenderInto writes frame idx's clean view into dst, a square buffer the
// caller owns, at dst's size, and keeps nothing. It copies the frame
// from the memory tier when Example or CondExample already holds it,
// else from the persistent store, else renders it (persisting it when a
// store is attached); only that render counts toward Renders. The
// pixels equal the cached clean render's at the same size.
func (c *RenderCache) RenderInto(idx int, dst *render.Image) error {
	if dst.W != dst.H {
		return fmt.Errorf("dataset: render buffer must be square, got %dx%d", dst.W, dst.H)
	}
	s, err := c.slot(idx, slotKey{size: dst.W})
	if err != nil {
		return err
	}
	if ex := s.ex.Load(); ex != nil {
		copy(dst.Pix, ex.Image.Pix)
		return nil
	}
	_, err = c.load(idx, dst.W, dst)
	return err
}

// ConditionInto degrades frame idx's clean render under a capture
// condition resolved by ResolveCondition into dst, which must match
// clean's size, with the same per-frame seed CondExample uses, and
// returns dst; the clean condition returns clean itself and leaves dst
// alone. clean is never mutated.
func (c *RenderCache) ConditionInto(idx int, cond string, clean, dst *render.Image) (*render.Image, error) {
	if idx < 0 || idx >= len(c.study.Frames) {
		return nil, fmt.Errorf("dataset: frame index %d out of range [0,%d)", idx, len(c.study.Frames))
	}
	return c.study.conditioned(c.study.Frames[idx].Scene.ID, cond, clean, dst)
}
