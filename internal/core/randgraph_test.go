//go:build go1.22

// The build line lets this file use math/rand/v2 while go.mod stays at
// go 1.21, the line the benchmark module's read-only build requires.

package core

import (
	"math/rand/v2"

	"qcongest/internal/graph"
)

// randomConnected returns a connected simple graph on n nodes: a random
// spanning tree plus up to extra further random edges. With adversarial
// set every weight is 1 or maxW, a coin flip each, the two extremes the
// rounding treats most differently; otherwise weights are uniform in
// [1, maxW].
func randomConnected(rng *rand.Rand, n, extra int, maxW int64, adversarial bool) *graph.Graph {
	g := graph.New(n)
	seen := make(map[[2]int]bool)
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		w := 1 + rng.Int64N(maxW)
		if adversarial {
			w = 1
			if rng.IntN(2) == 1 {
				w = maxW
			}
		}
		g.MustAddEdge(u, v, w)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.IntN(i)])
	}
	for i := 0; i < extra; i++ {
		add(rng.IntN(n), rng.IntN(n))
	}
	return g
}

// propertyGraphs is the fixed-seed random family the Theorem 1.1 and
// cost-model tests take as extra inputs. Seed i draws the size (8 to 48
// nodes), the density and the weight range (W up to 64) from its own
// PCG stream; odd seeds get uniform weights, even seeds adversarial
// 1-or-W ones.
func propertyGraphs(count int) []*graph.Graph {
	gs := make([]*graph.Graph, count)
	for i := range gs {
		seed := uint64(i + 1)
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		n := 8 + rng.IntN(41)
		gs[i] = randomConnected(rng, n, rng.IntN(2*n), 1+rng.Int64N(64), seed%2 == 0)
	}
	return gs
}
