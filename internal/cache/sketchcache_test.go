package cache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qcongest/internal/dist"
	"qcongest/internal/graph"
)

func cacheWorkload(t testing.TB) (*graph.Graph, []int, dist.Eps) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	g := graph.RandomWeights(graph.RandomConnected(40, 110, rng), 9, rng)
	return g, []int{0, 7, 13, 21, 33}, dist.EpsForN(g.N())
}

func TestSketchCacheHitsAndKeying(t *testing.T) {
	g, s, eps := cacheWorkload(t)
	c := NewSketchCache(4)

	sk1 := c.Skeleton(g, s, 12, 2, eps)
	sk2 := c.Skeleton(g, s, 12, 2, eps)
	if sk1 != sk2 {
		t.Fatal("identical query did not hit the cache")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}

	// Every component of the key must miss on change.
	if c.Skeleton(g, s, 13, 2, eps) == sk1 {
		t.Fatal("different ℓ shared a cache line")
	}
	if c.Skeleton(g, s, 12, 3, eps) == sk1 {
		t.Fatal("different k shared a cache line")
	}
	if c.Skeleton(g, s, 12, 2, dist.Eps{T: eps.T + 1}) == sk1 {
		t.Fatal("different ε shared a cache line")
	}
	if c.Skeleton(g, s[:4], 12, 2, eps) == sk1 {
		t.Fatal("different source set shared a cache line")
	}
	g2 := g.Clone()
	g2.MustAddEdge(0, 39, 3)
	if c.Skeleton(g2, s, 12, 2, eps) == sk1 {
		t.Fatal("different graph (digest) shared a cache line")
	}
}

func TestSketchCacheEviction(t *testing.T) {
	g, s, eps := cacheWorkload(t)
	c := NewSketchCache(2)
	a := c.Skeleton(g, s, 4, 2, eps)
	_ = c.Skeleton(g, s, 5, 2, eps)
	_ = c.Skeleton(g, s, 6, 2, eps) // evicts the (l=4) entry
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if c.Skeleton(g, s, 4, 2, eps) == a {
		// A rebuild returns a different *Skeleton instance.
		t.Fatal("evicted entry still resident")
	}
	if st := c.Stats(); st.Misses != 4 {
		t.Fatalf("re-query of evicted entry must rebuild: %+v", st)
	}

	// Touching an entry protects it: (l=4) is now most recent, so the
	// next insert evicts (l=6).
	sk4 := c.Skeleton(g, s, 4, 2, eps)
	_ = c.Skeleton(g, s, 7, 2, eps)
	if c.Skeleton(g, s, 4, 2, eps) != sk4 {
		t.Fatal("most-recently-used entry was evicted")
	}
}

// TestSketchCacheSingleFlight: concurrent identical queries must
// compute once and all observe the same skeleton. Runs under -race in
// CI, which also exercises the shared skeleton's query-path mutex.
func TestSketchCacheSingleFlight(t *testing.T) {
	g, s, eps := cacheWorkload(t)
	c := NewSketchCache(4)

	const goroutines = 16
	var wg sync.WaitGroup
	var distinct sync.Map
	var eccSum atomic.Int64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sk := c.Skeleton(g, s, 10, 2, eps)
			distinct.Store(sk, true)
			eccSum.Add(sk.ApproxEccentricity(i % g.N()))
		}(i)
	}
	wg.Wait()
	count := 0
	distinct.Range(func(any, any) bool { count++; return true })
	if count != 1 {
		t.Fatalf("%d distinct skeletons built for one key", count)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("single-flight broke: %d builds for %d concurrent queries (%+v)", st.Misses, goroutines, st)
	}
	if st.Hits+st.Waits != goroutines-1 {
		t.Fatalf("hits+waits = %d, want %d (%+v)", st.Hits+st.Waits, goroutines-1, st)
	}
}

func TestSketchCacheEccentricityEndpoint(t *testing.T) {
	g, s, eps := cacheWorkload(t)
	c := NewSketchCache(2)
	ref := dist.BuildSkeleton(g, s, 12, 2, eps)
	for v := 0; v < g.N(); v += 5 {
		num, den := c.ApproxEccentricity(g, s, 12, 2, eps, v)
		if den != ref.DenOut || num != ref.ApproxEccentricity(v) {
			t.Fatalf("cached ẽ(%d) = %d/%d, direct build says %d/%d",
				v, num, den, ref.ApproxEccentricity(v), ref.DenOut)
		}
	}
}

// TestServerCachedAllocGuard pins the allocation ceiling of the warm
// cached path: a hit costs the key serialization and map lookup, not a
// build.
func TestServerCachedAllocGuard(t *testing.T) {
	g, s, eps := cacheWorkload(t)
	c := NewSketchCache(2)
	c.Skeleton(g, s, 12, 2, eps) // warm
	allocs := testing.AllocsPerRun(50, func() {
		c.Skeleton(g, s, 12, 2, eps)
	})
	// Key buffer + string conversion; the digest and lookup are
	// allocation-free.
	if allocs > 4 {
		t.Fatalf("warm cached skeleton fetch allocates %.0f objects, ceiling 4", allocs)
	}
}

func BenchmarkServerCachedSkeleton(b *testing.B) {
	g, s, eps := cacheWorkload(b)
	c := NewSketchCache(4)
	c.Skeleton(g, s, 12, 2, eps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Skeleton(g, s, 12, 2, eps)
	}
}

func BenchmarkServerCachedEccentricity(b *testing.B) {
	g, s, eps := cacheWorkload(b)
	c := NewSketchCache(4)
	c.ApproxEccentricity(g, s, 12, 2, eps, 0) // warm build + memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ApproxEccentricity(g, s, 12, 2, eps, i%g.N())
	}
}

// BenchmarkServerUncachedSkeleton is the contrast row to the cached
// read: every iteration misses (the graph digest changes), measuring the
// full build through the serving path.
func BenchmarkServerUncachedSkeleton(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	g := graph.RandomWeights(graph.RandomConnected(40, 110, rng), 9, rng)
	s := []int{0, 7, 13, 21, 33}
	eps := dist.EpsForN(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewSketchCache(1)
		c.Skeleton(g, s, 12, 2, eps)
	}
}
