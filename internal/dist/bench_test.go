package dist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
)

// BenchmarkBuildSkeletonApproxShape times steady-state skeleton builds
// at the shape of a Theorem 1.1 run on the approx benchmark workload:
// n=256 DiameterControlled graphs with D≈6 and D≈24, weights up to 16,
// the Eq. (1) parameters of core.ParamsFor, and seeded sets of r
// distinct vertices. Each iteration builds one set's skeleton over the
// graph's one row table and releases it, as core.Approximate does; once
// every set has been built the rows are all filled, so the steady state
// times the per-set overlay assembly.
func BenchmarkBuildSkeletonApproxShape(b *testing.B) {
	const n, maxW, sets = 256, 16, 8
	for _, d := range []int{6, 24} {
		b.Run(fmt.Sprintf("D%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			g := graph.RandomWeights(graph.DiameterControlled(n, d, rng), maxW, rng)
			p, err := core.ParamsFor(g.N(), g.UnweightedDiameter(), g.MaxWeight())
			if err != nil {
				b.Fatal(err)
			}
			ss := make([][]int, sets)
			for i := range ss {
				ss[i] = rng.Perm(g.N())[:p.R]
			}
			tab := dist.NewRowTable(g, p.L, p.Eps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Skeleton(ss[i%sets], p.K).Release()
			}
		})
	}
}
