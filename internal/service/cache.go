package service

import (
	"container/list"
	"sync"
)

// lruCache is a size-bounded, thread-safe LRU map from canonical keys
// to search results. Values are stored in canonical coordinates and
// never mutated after insertion, so readers share them without copying.
//
// Besides hit/miss (counted by the service), the cache tracks its own
// occupancy: entry count, cumulative evictions, and a bytes estimate
// supplied by the caller at Add time — the signals /metrics needs for
// shard-balance and sizing decisions.
type lruCache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions int64
	bytes     int64 // Σ size hints of resident entries
}

type lruEntry struct {
	key   string
	val   any
	bytes int64
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and promotes the entry.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts or refreshes an entry, evicting the least recently used
// entry when the cache is full. bytes is the caller's size estimate for
// the entry (see workload.size), folded into the occupancy gauge.
func (c *lruCache) Add(key string, val any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, bytes: bytes})
	c.bytes += bytes
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		e := last.Value.(*lruEntry)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the occupancy snapshot: resident entries, cumulative
// evictions (monotone across Flush), and the bytes estimate.
func (c *lruCache) Stats() (entries, evictions, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.ll.Len()), c.evictions, c.bytes
}

// Flush drops every entry. Flushed entries do not count as evictions —
// the eviction counter measures capacity pressure, not operator action.
func (c *lruCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.bytes = 0
}
