package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// refUnweightedDiameter is the n-BFS reference: the largest hop
// eccentricity over every source, with the reference BFS.
func refUnweightedDiameter(g *Graph) int64 {
	var d int64
	for u := 0; u < g.N(); u++ {
		if e := maxOf(g.BFS(u)); e > d {
			d = e
		}
	}
	return d
}

// TestUnweightedDiameterDifferential checks the eccentricity-bounding
// sweep against the n-BFS reference on random graphs and on the worst
// shapes: cycles and complete graphs (every vertex has the same
// eccentricity, so the sweep runs all n BFS), paths, stars and grids
// (ties everywhere), the smallest graphs, and disconnected graphs,
// which must report Inf.
func TestUnweightedDiameterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := map[string]*Graph{
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
	for name, g := range cases {
		want := refUnweightedDiameter(g)
		if got := g.UnweightedDiameter(); got != want {
			t.Errorf("%s (n=%d): UnweightedDiameter = %d, want %d", name, g.N(), got, want)
		}
	}
	for _, g := range []*Graph{disjointUnion(Path(6), Path(4)), New(3)} {
		if got := g.UnweightedDiameter(); got != Inf {
			t.Errorf("disconnected graph (n=%d): UnweightedDiameter = %d, want Inf", g.N(), got)
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
			got := boundingDiameter(n, func(dst []int64, src int) []int64 {
				runs++
				return ws.BFSInto(dst, src)
			})
			if want := refUnweightedDiameter(g); got != want {
				t.Fatalf("d=%d rep %d: diameter %d, want %d", d, rep, got, want)
			}
			if runs > n/4 {
				t.Errorf("d=%d rep %d: %d BFS runs, want at most %d", d, rep, runs, n/4)
			}
		}
	}
}
