// Distance-kernel benchmarks: skeleton construction and the end-to-end
// experiment drivers it dominates.
package qcongest_test

import (
	"math/rand"
	"testing"

	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
)

// skeletonWorkload is the fixed skeleton workload: a random connected
// graph with m = 4n weighted edges, 64 skeleton sources,
// hop budget 64, k = 3, ε = EpsForN(n).
func skeletonWorkload(n int) (*graph.Graph, []int, dist.Eps) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomWeights(graph.RandomConnected(n, 4*n, rng), 12, rng)
	var s []int
	for v := 0; v < g.N(); v += g.N() / 64 {
		s = append(s, v)
	}
	return g, s, dist.EpsForN(g.N())
}

// benchBuildSkeleton measures the single-thread standalone build: every
// iteration builds a private row table (graph.DistWorkspace and the
// sources' rows) and releases the skeleton, so only the per-set overlay
// scratch is recycled. The sketch cache's cold build does the same work
// but keeps its skeleton; the core evaluator shares one table instead.
func benchBuildSkeleton(b *testing.B, n int) {
	g, s, eps := skeletonWorkload(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := dist.BuildSkeleton(g, s, 64, 3, eps)
		sk.Release()
	}
}

func BenchmarkBuildSkeletonN512(b *testing.B)  { benchBuildSkeleton(b, 512) }
func BenchmarkBuildSkeletonN1024(b *testing.B) { benchBuildSkeleton(b, 1024) }

// benchEDriver is the end-to-end E-driver wall clock: one full Theorem 1.1 diameter approximation (the E2 driver point) on
// the same workload family, with a bounded set count so the run is
// dominated by skeleton construction rather than the outer search.
func benchEDriver(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(int64(n)))
	g := graph.RandomWeights(graph.DiameterControlled(n, 6, rng), 16, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Approximate(g, core.DiameterMode, core.Options{Seed: 1, Sets: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEDriverN512(b *testing.B)  { benchEDriver(b, 512) }
func BenchmarkEDriverN1024(b *testing.B) { benchEDriver(b, 1024) }
