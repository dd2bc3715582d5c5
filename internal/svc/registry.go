package svc

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"qcongest/internal/graph"
	"qcongest/internal/store"
)

// FormatDigest renders a graph digest as the canonical 16-hex-digit
// string used in URLs and JSON (graph.DigestString).
func FormatDigest(d uint64) string { return graph.DigestString(d) }

// ParseDigest parses the canonical digest form (any 1-16 digit hex
// string is accepted).
func ParseDigest(s string) (uint64, error) {
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("want 16 hex digits")
	}
	return strconv.ParseUint(s, 16, 64)
}

// entry is one registered graph plus its lazily computed exact metrics.
// The graph is immutable after registration — the digest names it
// forever — so the metric memos never need invalidation.
type entry struct {
	g      *graph.Graph
	digest uint64
	info   GraphInfo

	// ext memoizes the diameter and radius, settled by a few bounded
	// Dijkstra runs (graph.Extremes); eccs memoizes the full
	// eccentricity table, which takes all n runs. Neither fills the
	// other.
	ext  memo[extremes]
	eccs memo[[]int64]

	// prewarmed marks an entry whose memos (and recorded sketch, when
	// warmSketch is non-nil) were rebuilt by the boot-time warm-start
	// pass; reads against it count as warm-start hits in /metrics.
	prewarmed atomic.Bool
	// warmSketch is the recovered sketch hint this entry was (or will
	// be) pre-warmed with; immutable after replay.
	warmSketch *store.SketchParams

	// durable is closed once the entry's persistence is settled — the
	// store fsync completed (or failed, or the server is in-memory).
	// A concurrent duplicate upload waits on it before answering, so
	// every 2xx upload response, not just the first, is a durability
	// receipt. persistErr is written before the close.
	durable    chan struct{}
	persistErr error
}

// extremes is a graph's exact weighted diameter and radius.
type extremes struct{ diam, radius int64 }

// memo is a value computed once, on first get.
type memo[T any] struct {
	once  sync.Once
	ready atomic.Bool // set after once ran; steers admission class
	val   T
}

func (m *memo[T]) get(compute func() T) T {
	m.once.Do(func() {
		m.val = compute()
		m.ready.Store(true)
	})
	return m.val
}

// isReady reports whether the value is already memoized (a warm read).
// Used only to pick the admission gate, so the inherent race with a
// concurrent first compute is harmless.
func (m *memo[T]) isReady() bool { return m.ready.Load() }

// extremes returns the exact weighted diameter and radius, computing
// both on first touch.
func (e *entry) extremes() extremes {
	return e.ext.get(func() extremes {
		d, r := e.g.Extremes()
		return extremes{d, r}
	})
}

// eccentricities returns the exact weighted eccentricity of every
// vertex, computing the table on first touch.
func (e *entry) eccentricities() []int64 { return e.eccs.get(e.g.Eccentricities) }

// registry is the digest-addressed store of immutable graphs.
type registry struct {
	max int

	mu       sync.RWMutex
	byDigest map[uint64]*entry
	order    []uint64 // insertion order, for stable listings
}

func newRegistry(max int) *registry {
	return &registry{max: max, byDigest: make(map[uint64]*entry)}
}

// put registers g (which must not be mutated afterwards). Registration
// is idempotent: re-uploading an identical graph returns the existing
// entry with created == false. errRegistryFull is returned at capacity.
func (r *registry) put(g *graph.Graph) (e *entry, created bool, err error) {
	digest := g.Digest()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byDigest[digest]; ok {
		return e, false, nil
	}
	if len(r.byDigest) >= r.max {
		return nil, false, errRegistryFull
	}
	e = &entry{
		g:       g,
		digest:  digest,
		durable: make(chan struct{}),
		info: GraphInfo{
			Digest:    FormatDigest(digest),
			N:         g.N(),
			M:         g.M(),
			MaxWeight: g.MaxWeight(),
		},
	}
	r.byDigest[digest] = e
	r.order = append(r.order, digest)
	return e, true, nil
}

// remove unregisters a digest. It exists for exactly one caller: the
// upload handler rolling back a registration whose durable append
// failed, so the registry never serves a graph the store could not
// commit.
func (r *registry) remove(digest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byDigest[digest]; !ok {
		return
	}
	delete(r.byDigest, digest)
	for i, d := range r.order {
		if d == digest {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *registry) get(digest uint64) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byDigest[digest]
	return e, ok
}

// list returns every registered graph's info in registration order.
func (r *registry) list() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(r.order))
	for _, d := range r.order {
		out = append(out, r.byDigest[d].info)
	}
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byDigest)
}

var errRegistryFull = fmt.Errorf("svc: graph registry is full")
