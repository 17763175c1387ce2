package server

import "sync"

// resultCache memoizes aggregate results for hot query shapes, keyed by the
// statement's SQL text and guarded by an epoch version: an entry is served
// only while the version it was computed under is still current. The server
// bumps its version on every acknowledged mutation (insert, delete, update)
// and folds in the adaptive index's generation counter, so a relearn or
// merge swap also invalidates every entry. Invalidation is lazy — a stale
// entry is dropped when a lookup finds it — so mutations stay O(1).
//
// The version an entry is stored under is captured BEFORE its query
// executes. A mutation landing during execution therefore bumps the live
// version past the entry's, and the (possibly half-updated) result is never
// served from cache; it is returned once, to the client that ran it, which
// matches the non-cached consistency contract.
type resultCache struct {
	mu  sync.Mutex
	max int
	m   map[string]cacheEntry
}

// cacheEntry is one memoized aggregate result in the physical int64 domain;
// matched carries the row count the aggregate saw, which typed decoding
// needs to distinguish an empty MIN/MAX from a legitimate extreme value.
type cacheEntry struct {
	ver     uint64
	value   int64
	matched int64
}

// newResultCache sizes a cache; max <= 0 disables caching (nil cache).
func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{max: max, m: make(map[string]cacheEntry, max)}
}

// get returns the entry for key if it was computed under the current
// version; a stale entry is evicted on the way out.
func (c *resultCache) get(key string, ver uint64) (cacheEntry, bool) {
	if c == nil {
		return cacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return cacheEntry{}, false
	}
	if e.ver != ver {
		delete(c.m, key)
		return cacheEntry{}, false
	}
	return e, true
}

// put stores an entry, evicting an arbitrary existing entry when the cache
// is full (hot keys re-enter immediately, so precise LRU buys little for a
// cache whose entries are invalidated wholesale by every mutation). An
// existing entry with a newer version is kept.
func (c *resultCache) put(key string, e cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[key]; ok && old.ver > e.ver {
		return
	}
	if _, ok := c.m[key]; !ok && len(c.m) >= c.max {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = e
}
