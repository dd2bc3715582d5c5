package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// refExtremes is the n-run reference: the largest and smallest
// eccentricity over every source of the reference search run (BFS or
// Dijkstra), with (0, 0) on the empty graph.
func refExtremes(g *Graph, run func(src int) []int64) (diam, radius int64) {
	if g.N() == 0 {
		return 0, 0
	}
	radius = Inf
	for u := 0; u < g.N(); u++ {
		e := maxOf(run(u))
		diam, radius = max(diam, e), min(radius, e)
	}
	return diam, radius
}

// boundingCases is the case table of the bounding-sweep differential
// tests: random graphs and the worst shapes — cycles and complete graphs
// (every vertex has the same eccentricity, so the sweep runs all n
// sources), paths, stars and grids (ties everywhere), the smallest
// graphs, and disconnected graphs, which must report Inf.
func boundingCases(rng *rand.Rand) map[string]*Graph {
	cases := map[string]*Graph{
		"n=0":       New(0),
		"n=1":       New(1),
		"n=2":       Path(2),
		"n=2 apart": New(2),
		"path":      Path(17),
		"cycle odd": Cycle(15),
		"cycle":     Cycle(16),
		"star":      Star(12),
		"complete":  Complete(9),
		"grid":      Grid(5, 7),
		"barbell":   Barbell(5, 7),
		"two paths": disjointUnion(Path(6), Path(4)),
		"isolated":  disjointUnion(Star(6), New(1)),
	}
	for i := 0; i < 12; i++ {
		n := 3 + rng.Intn(60)
		cases[fmt.Sprintf("random connected %d", i)] = RandomConnected(n, n-1+rng.Intn(2*n), rng)
		cases[fmt.Sprintf("diameter controlled %d", i)] = DiameterControlled(n, 2+rng.Intn(n-2), rng)
		cases[fmt.Sprintf("tree %d", i)] = RandomTree(n, rng)
	}
	return cases
}

// TestUnweightedDiameterDifferential checks the eccentricity-bounding
// sweep over BFS against the n-BFS reference on the boundingCases table.
func TestUnweightedDiameterDifferential(t *testing.T) {
	for name, g := range boundingCases(rand.New(rand.NewSource(41))) {
		wantD, wantR := refExtremes(g, g.BFS)
		if got := g.UnweightedDiameter(); got != wantD {
			t.Errorf("%s (n=%d): UnweightedDiameter = %d, want %d", name, g.N(), got, wantD)
		}
		if got := g.UnweightedRadius(); got != wantR {
			t.Errorf("%s (n=%d): UnweightedRadius = %d, want %d", name, g.N(), got, wantR)
		}
	}
	for _, g := range []*Graph{disjointUnion(Path(6), Path(4)), New(3)} {
		if got := g.UnweightedDiameter(); got != Inf {
			t.Errorf("disconnected graph (n=%d): UnweightedDiameter = %d, want Inf", g.N(), got)
		}
	}
}

// TestExtremesDifferential checks the bounding sweep over Dijkstra —
// Extremes and its Diameter and Radius wrappers — against the
// n-Dijkstra reference on the boundingCases table, with unit weights
// and with random weights up to a small and a large maxW. It also pins
// the sweep's worst case: never more than n runs.
func TestExtremesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for name, base := range boundingCases(rng) {
		for _, maxW := range []int64{1, 4, 1 << 20} {
			g := base
			if maxW > 1 {
				g = RandomWeights(base, maxW, rng)
			}
			n := g.N()
			wantD, wantR := refExtremes(g, g.Dijkstra)
			if d, r := g.Extremes(); d != wantD || r != wantR {
				t.Errorf("%s (n=%d, maxW=%d): Extremes = (%d, %d), want (%d, %d)", name, n, maxW, d, r, wantD, wantR)
			}
			if d, r := g.Diameter(), g.Radius(); d != wantD || r != wantR {
				t.Errorf("%s (n=%d, maxW=%d): Diameter, Radius = %d, %d, want %d, %d", name, n, maxW, d, r, wantD, wantR)
			}
			if n < 2 {
				continue
			}
			ws := NewDistWorkspace(g)
			runs := 0
			boundingExtremes(n, wantDiameter|wantRadius, func(dst []int64, src int) []int64 {
				runs++
				return ws.DijkstraInto(dst, src)
			})
			if runs > n {
				t.Errorf("%s (n=%d, maxW=%d): %d Dijkstra runs, more than n", name, n, maxW, runs)
			}
		}
	}
	for _, g := range []*Graph{disjointUnion(Path(6), Path(4)), New(3), RandomWeights(disjointUnion(Star(6), Cycle(5)), 9, rng)} {
		if d, r := g.Extremes(); d != Inf || r != Inf {
			t.Errorf("disconnected graph (n=%d): Extremes = (%d, %d), want (Inf, Inf)", g.N(), d, r)
		}
	}
}

// TestUnweightedDiameterBFSCount pins the point of the bounding sweep:
// on the benchmark's graph family it settles D with a small fraction of
// the n BFS runs the plain sweep makes.
func TestUnweightedDiameterBFSCount(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 256
	for _, d := range []int{6, 24} {
		for rep := 0; rep < 4; rep++ {
			g := RandomWeights(DiameterControlled(n, d, rng), 16, rng)
			ws := NewDistWorkspace(g)
			runs := 0
			got, _ := boundingExtremes(n, wantDiameter, func(dst []int64, src int) []int64 {
				runs++
				return ws.BFSInto(dst, src)
			})
			if want, _ := refExtremes(g, g.BFS); got != want {
				t.Fatalf("d=%d rep %d: diameter %d, want %d", d, rep, got, want)
			}
			if runs > n/4 {
				t.Errorf("d=%d rep %d: %d BFS runs, want at most %d", d, rep, runs, n/4)
			}
		}
	}
}

// TestExtremesDijkstraCount pins the point of Extremes: on the
// benchmark's weighted families (n = 256 with D ≈ 6 and 24, n = 512
// with D ≈ 12, maxW 16) it settles both D_{G,w} and R_{G,w} with at
// most n/16 of the n Dijkstra runs Eccentricities makes.
func TestExtremesDijkstraCount(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, fam := range []struct{ n, d int }{{256, 6}, {256, 24}, {512, 12}} {
		for rep := 0; rep < 4; rep++ {
			g := RandomWeights(DiameterControlled(fam.n, fam.d, rng), 16, rng)
			ws := NewDistWorkspace(g)
			runs := 0
			d, r := boundingExtremes(fam.n, wantDiameter|wantRadius, func(dst []int64, src int) []int64 {
				runs++
				return ws.DijkstraInto(dst, src)
			})
			if wantD, wantR := refExtremes(g, g.Dijkstra); d != wantD || r != wantR {
				t.Fatalf("n=%d d=%d rep %d: extremes (%d, %d), want (%d, %d)", fam.n, fam.d, rep, d, r, wantD, wantR)
			}
			if runs > fam.n/16 {
				t.Errorf("n=%d d=%d rep %d: %d Dijkstra runs, want at most %d", fam.n, fam.d, rep, runs, fam.n/16)
			}
		}
	}
}
