// Distance-kernel benchmarks on the high-degree expander (avg degree
// 16) whose middle levels cover most of the graph. The skeleton build
// and E-driver rows live in benchdist_test.go.
package qcongest_test

import (
	"fmt"
	"math/rand"
	"testing"

	"qcongest/internal/graph"
)

// BenchmarkKernelBFS isolates the unweighted traversal: the
// direction-optimizing (top-down/bottom-up) BFS on the shape bottom-up
// pulling exists for. This is the inner loop of
// UnweightedDiameter/UnweightedRadius (the paper's D parameter), so the
// per-call cost is the all-pairs driver cost over n.
func BenchmarkKernelBFS(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		rng := rand.New(rand.NewSource(9))
		g := graph.LowDiameterExpanderish(n, 16, rng)
		ws := graph.NewDistWorkspace(g)
		dst := make([]int64, g.N())
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ws.BFSInto(dst, i%g.N())
			}
		})
	}
}

// BenchmarkKernelDijkstra pins the single-source weighted query — the
// inner loop of HopDiameter and the exact-metric memos — on the binary
// heap.
func BenchmarkKernelDijkstra(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		rng := rand.New(rand.NewSource(9))
		g := graph.RandomWeights(graph.LowDiameterExpanderish(n, 16, rng), 16, rng)
		ws := graph.NewDistWorkspace(g)
		var d, h []int64
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, h = ws.DijkstraHopsInto(d, h, i%g.N())
			}
		})
	}
}
