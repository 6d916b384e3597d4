package serve

import (
	"container/list"
	"sync"
)

// lru is the gateway's bounded answer cache: classification is
// deterministic per (backend, frame, options), so a repeat request can
// skip the coalescer entirely. Keys are built by the handler from the
// route name, optionsKey, and the frame key.
type lru struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	// answers are shared with past responses; treat as read-only.
	answers []bool
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), items: make(map[string]*list.Element, max)}
}

// get returns the cached answers and refreshes the entry's recency.
func (c *lru) get(key string) ([]bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).answers, true
}

// add inserts (or refreshes) an entry, evicting the least recently used
// entry beyond the budget.
func (c *lru) add(key string, answers []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).answers = answers
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, answers: answers})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// size reports current occupancy and capacity.
func (c *lru) size() (entries, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.max
}
