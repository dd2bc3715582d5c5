// Package cache is the sketch-serving layer: a bounded LRU cache of
// distance skeletons with single-flight deduplication, so a deployment
// serving many concurrent diameter/radius/eccentricity queries against
// a fixed topology builds each sketch once and answers the rest from
// memory.
// Entries are keyed by the full query identity — graph digest, source
// set, hop budget ℓ, sparsification k, and rounding ε — matching the
// parameter tuple of Lemma 3.2.
package cache

import (
	"container/list"
	"encoding/binary"
	"sync"

	"qcongest/internal/dist"
	"qcongest/internal/graph"
)

// SketchCache is a bounded, thread-safe LRU cache of built skeletons.
// Concurrent Skeleton calls with the same key are deduplicated: one
// caller builds, the rest block until the build completes and share the
// result (the skeleton's query path is internally synchronized).
// Evicted skeletons are handed to the garbage collector, never
// recycled — waiters may still hold them.
type SketchCache struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used *cacheEntry

	hits, misses, waits, evictions int64
}

type cacheEntry struct {
	key   string
	elem  *list.Element
	ready chan struct{}
	sk    *dist.Skeleton // non-nil once done
	done  bool           // guarded by SketchCache.mu (readers may also wait on ready)
}

// NewSketchCache returns a cache holding at most capacity skeletons
// (minimum 1).
func NewSketchCache(capacity int) *SketchCache {
	if capacity < 1 {
		capacity = 1
	}
	return &SketchCache{
		capacity: capacity,
		entries:  make(map[string]*cacheEntry, capacity+1),
		lru:      list.New(),
	}
}

// sketchKey serializes the query identity. The source order is part of
// the key: two requests naming the same set in different orders are
// distinct cache lines (their skeletons answer identically, but the
// exported Sources differ).
func sketchKey(g *graph.Graph, s []int, l, k int, eps dist.Eps) string {
	buf := make([]byte, 0, 8*(5+len(s)))
	var tmp [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(tmp[:], x)
		buf = append(buf, tmp[:]...)
	}
	put(g.Digest())
	put(uint64(l))
	put(uint64(k))
	put(uint64(eps.T))
	put(uint64(len(s)))
	for _, v := range s {
		put(uint64(v))
	}
	return string(buf)
}

// Peek reports whether a completed build for (g, s, l, k, eps) is
// resident, without blocking, building, or touching the counters and
// LRU state — a purely observational probe. Callers (internal/svc's
// admission control) use it to route likely-cold work through a
// different bounded path before committing to Skeleton, which does the
// counted lookup and hands out the shared result.
func (c *SketchCache) Peek(g *graph.Graph, s []int, l, k int, eps dist.Eps) bool {
	key := sketchKey(g, s, l, k, eps)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && e.done
}

// Skeleton returns the cached skeleton for (g, s, l, k, eps), building
// it on a miss. The returned skeleton is shared: callers must not
// Release it.
func (c *SketchCache) Skeleton(g *graph.Graph, s []int, l, k int, eps dist.Eps) *dist.Skeleton {
	key := sketchKey(g, s, l, k, eps)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		if e.done {
			c.hits++
			c.mu.Unlock()
			return e.sk
		}
		c.waits++
		c.mu.Unlock()
		<-e.ready
		if e.sk == nil {
			panic("cache: sketch build failed on the deduplicated flight (invalid query)")
		}
		return e.sk
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.evictLocked()
	c.mu.Unlock()

	// If the build panics (e.g. an out-of-range source), drop the
	// in-flight entry and release its waiters instead of poisoning the
	// key: the panic propagates to this caller, waiters panic on the nil
	// result above, and the next request for the key builds afresh.
	built := false
	defer func() {
		if !built {
			c.mu.Lock()
			c.lru.Remove(e.elem)
			delete(c.entries, e.key)
			c.mu.Unlock()
			close(e.ready)
		}
	}()
	sk := dist.BuildSkeleton(g, s, l, k, eps)
	c.mu.Lock()
	e.sk = sk
	e.done = true
	c.mu.Unlock()
	built = true
	close(e.ready)
	return sk
}

// ApproxEccentricity answers one ẽ query through the cache: the
// numerator over den = eps.Den(l) of the Lemma 3.3 approximate
// eccentricity of v through the (g, s, l, k, eps) skeleton.
func (c *SketchCache) ApproxEccentricity(g *graph.Graph, s []int, l, k int, eps dist.Eps, v int) (num, den int64) {
	sk := c.Skeleton(g, s, l, k, eps)
	return sk.ApproxEccentricity(v), sk.DenOut
}

// evictLocked drops least-recently-used completed entries until the
// cache fits its capacity. In-flight builds are never evicted (their
// waiters hold the entry); the cache may transiently exceed capacity
// while every resident entry is in flight.
func (c *SketchCache) evictLocked() {
	for len(c.entries) > c.capacity {
		evicted := false
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			if !e.done {
				continue
			}
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.evictions++
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64 // answered from a completed entry
	Misses    int64 // triggered a build
	Waits     int64 // deduplicated onto another caller's in-flight build
	Evictions int64 // completed entries dropped by the LRU policy
	Size      int   // resident entries (including in-flight)
}

// Stats returns a snapshot of the cache counters.
func (c *SketchCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Evictions: c.evictions,
		Size:      len(c.entries),
	}
}
