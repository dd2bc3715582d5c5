package dist

import (
	"math/rand"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

func TestEpsForN(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{48, 6}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := EpsForN(c.n).T; got != c.want {
			t.Errorf("EpsForN(%d).T = %d, want %d", c.n, got, c.want)
		}
	}
	// ε shrinks (T grows) monotonically with n.
	prev := int64(0)
	for n := 2; n <= 4096; n *= 2 {
		cur := EpsForN(n).T
		if cur < prev {
			t.Fatalf("EpsForN not monotone at n=%d: T=%d after %d", n, cur, prev)
		}
		prev = cur
	}
}

func TestEpsFloatAndDen(t *testing.T) {
	cases := []struct {
		eps   Eps
		l     int
		float float64
		den   int64
	}{
		{Eps{T: 1}, 1, 1, 2},
		{Eps{T: 4}, 10, 0.25, 80},
		{Eps{T: 10}, 7, 0.1, 140},
		{Eps{T: 0}, 5, 1, 10}, // degenerate T clamps to 1
	}
	for _, c := range cases {
		if got := c.eps.Float(); got != c.float {
			t.Errorf("Eps{%d}.Float() = %v, want %v", c.eps.T, got, c.float)
		}
		if got := c.eps.Den(c.l); got != c.den {
			t.Errorf("Eps{%d}.Den(%d) = %d, want %d", c.eps.T, c.l, got, c.den)
		}
	}
}

func TestIMaxMonotone(t *testing.T) {
	eps := Eps{T: 4}
	cases := []struct {
		n    int
		w    int64
		want int
	}{
		{1, 1, 0}, {2, 1, 1}, {4, 4, 4}, {1024, 1, 10}, {1024, 16, 14},
	}
	for _, c := range cases {
		if got := IMax(c.n, c.w, eps); got != c.want {
			t.Errorf("IMax(%d, %d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
	// Monotone in n at fixed w, and in w at fixed n: the scale ladder can
	// only grow with the distance range it must cover.
	for _, w := range []int64{1, 3, 16, 1 << 20} {
		prev := -1
		for n := 1; n <= 1<<12; n *= 2 {
			cur := IMax(n, w, eps)
			if cur < prev {
				t.Fatalf("IMax not monotone in n at (n=%d, w=%d)", n, w)
			}
			prev = cur
		}
	}
	for _, n := range []int{2, 17, 500} {
		prev := -1
		for w := int64(1); w <= 1<<30; w *= 4 {
			cur := IMax(n, w, eps)
			if cur < prev {
				t.Fatalf("IMax not monotone in w at (n=%d, w=%d)", n, w)
			}
			prev = cur
		}
	}
}

func TestSubroundsPerLogical(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {2, 1}, {3, 2}, {16, 4}, {17, 5}, {1000, 10}}
	for _, c := range cases {
		if got := SubroundsPerLogical(c.n); got != c.want {
			t.Errorf("SubroundsPerLogical(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSampleDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ b, n int }{{0, 10}, {1, 2}, {5, 100}, {40, 1000}} {
		delays := SampleDelays(c.b, c.n, rng)
		if len(delays) != c.b {
			t.Fatalf("SampleDelays(%d, %d): %d delays", c.b, c.n, len(delays))
		}
		bound := c.b*SubroundsPerLogical(c.n) + 1 // the cost model's maxDelay
		for i, d := range delays {
			if d < 0 || d >= bound {
				t.Fatalf("delay[%d] = %d outside [0, %d)", i, d, bound)
			}
		}
	}
}

// skeletonCase is one table entry for the eccentricity sandwich.
type skeletonCase struct {
	name string
	g    *graph.Graph
	l, k int
}

func skeletonCases(t *testing.T) []skeletonCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return []skeletonCase{
		{"path", graph.Path(12), 16, 2},
		{"cycle-weighted", graph.RandomWeights(graph.Cycle(10), 5, rng), 12, 2},
		{"star", graph.Star(9), 4, 3},
		{"random-weighted", graph.RandomWeights(graph.RandomConnected(20, 45, rng), 9, rng), 25, 3},
		{"expanderish", graph.RandomWeights(graph.LowDiameterExpanderish(24, 4, rng), 12, rng), 30, 3},
	}
}

func TestSkeletonEccentricitySandwich(t *testing.T) {
	// With every vertex in the skeleton and ℓ at least the hop length of
	// every min-weight path, Lemma 3.3 pins ẽ(v) into [e(v), (1+ε)·e(v)].
	for _, c := range skeletonCases(t) {
		eps := EpsForN(c.g.N())
		all := make([]int, c.g.N())
		for i := range all {
			all[i] = i
		}
		sk := BuildSkeleton(c.g, all, c.g.N(), c.k, eps)
		for v := 0; v < c.g.N(); v++ {
			num := sk.ApproxEccentricity(v)
			lo := c.g.Eccentricity(v) * sk.DenOut
			hi := float64(lo) * (1 + eps.Float())
			if num < lo {
				t.Errorf("%s: ẽ(%d) = %d/%d undershoots e(v) = %d/%d",
					c.name, v, num, sk.DenOut, lo, sk.DenOut)
			}
			if float64(num) > hi+1e-9 {
				t.Errorf("%s: ẽ(%d) = %d above (1+ε)·e(v) = %.1f", c.name, v, num, hi)
			}
		}
	}
}

func TestSkeletonSubsetNeverUndershoots(t *testing.T) {
	// For arbitrary skeleton sets and hop budgets, every estimate is the
	// length of a real path: ẽ(s) >= e(s) unconditionally.
	rng := rand.New(rand.NewSource(3))
	for _, c := range skeletonCases(t) {
		eps := EpsForN(c.g.N())
		var s []int
		for v := 0; v < c.g.N(); v++ {
			if rng.Intn(3) == 0 {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			s = []int{0}
		}
		sk := BuildSkeleton(c.g, s, c.l, c.k, eps)
		for _, v := range s {
			if num := sk.ApproxEccentricity(v); num < c.g.Eccentricity(v)*sk.DenOut {
				t.Errorf("%s: subset skeleton undershoots at v=%d", c.name, v)
			}
		}
	}
}

func TestBFSTreeMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []*graph.Graph{
		graph.Path(10),
		graph.Grid(4, 5),
		graph.RandomConnected(30, 60, rng),
	}
	for gi, g := range cases {
		root := gi % g.N()
		want := g.BFS(root)
		parent, depth, stats, err := RunBFSTree(g, root, g.N(), congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages == 0 {
			t.Fatal("no traffic recorded")
		}
		for v := range depth {
			if depth[v] != want[v] {
				t.Fatalf("graph %d: depth[%d] = %d, want %d", gi, v, depth[v], want[v])
			}
			if v == root {
				if parent[v] != -1 {
					t.Fatalf("graph %d: root has parent %d", gi, parent[v])
				}
				continue
			}
			if parent[v] < 0 || depth[parent[v]]+1 != depth[v] {
				t.Fatalf("graph %d: node %d has parent %d at depth %d (own depth %d)",
					gi, v, parent[v], depth[parent[v]], depth[v])
			}
			if _, ok := g.HasEdge(v, parent[v]); !ok {
				t.Fatalf("graph %d: parent %d of %d is not a neighbor", gi, parent[v], v)
			}
		}
	}
}

func TestBFSTreeBudgetCutsOff(t *testing.T) {
	g := graph.Path(10)
	budget := 3
	_, depth, stats, err := RunBFSTree(g, 0, budget, congest.Options{MaxRounds: budget + 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > budget+2 {
		t.Fatalf("budgeted BFS ran %d rounds", stats.Rounds)
	}
	for v := 0; v < g.N(); v++ {
		if v <= budget && depth[v] != int64(v) {
			t.Errorf("node %d within budget: depth %d, want %d", v, depth[v], v)
		}
		if v > budget && depth[v] != graph.Inf {
			t.Errorf("node %d beyond budget: depth %d, want Inf", v, depth[v])
		}
	}
}

func TestRunBFSTreeRejectsBadRoot(t *testing.T) {
	g := graph.Path(4)
	if _, _, _, err := RunBFSTree(g, -1, 4, congest.Options{}); err == nil {
		t.Error("negative root accepted")
	}
	if _, _, _, err := RunBFSTree(g, 4, 4, congest.Options{}); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestRunAlg1Sandwich(t *testing.T) {
	// The executable Algorithm 1 computes exact ℓ-hop Bellman-Ford per
	// rounding scale, so the sandwich d^ℓ <= est <= (1+ε)·d^ℓ is
	// deterministic against the centralized ground truth.
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		name string
		g    *graph.Graph
		src  int
		l    int
	}{
		{"path-full", graph.Path(8), 0, 7},
		{"path-truncated", graph.Path(8), 0, 3},
		{"weighted-random", graph.RandomWeights(graph.RandomConnected(14, 28, rng), 5, rng), 2, 6},
	}
	for _, c := range cases {
		eps := EpsForN(c.g.N())
		est, stats, err := RunAlg1(c.g, c.src, c.l, eps, congest.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if stats.Rounds <= 0 {
			t.Fatalf("%s: no rounds", c.name)
		}
		truth := c.g.BoundedHopDist(c.src, c.l)
		for v := 0; v < c.g.N(); v++ {
			if truth[v] == graph.Inf {
				if est.Num[v] != graph.Inf {
					t.Errorf("%s: node %d reachable in estimate but not within %d hops", c.name, v, c.l)
				}
				continue
			}
			got := float64(est.Num[v]) / float64(est.Den)
			lo, hi := float64(truth[v]), float64(truth[v])*(1+eps.Float())
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Errorf("%s: d̃^ℓ(%d,%d) = %.4f outside [%v, %.4f]", c.name, c.src, v, got, lo, hi)
			}
		}
	}
}

func TestRunAlg3Sound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomWeights(graph.Path(8), 4, rng)
	sources := []int{0, 7}
	l := 7
	eps := EpsForN(g.N())
	delays := SampleDelays(len(sources), g.N(), rng)
	ests, stats, err := RunAlg3(g, sources, delays, l, eps, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds <= 0 || stats.MaxEdgeLoad > 1 {
		t.Fatalf("bad stats: %v", stats)
	}
	for j, src := range sources {
		truth := g.Dijkstra(src)
		for v := 0; v < g.N(); v++ {
			got := float64(ests[j].Num[v]) / float64(ests[j].Den)
			if got < float64(truth[v])-1e-9 {
				t.Errorf("source %d: estimate %.4f undershoots d(%d,%d) = %d", src, got, src, v, truth[v])
			}
			if got > float64(truth[v])*(1+eps.Float())+1e-9 {
				t.Errorf("source %d: estimate %.4f above (1+ε)·%d", src, got, truth[v])
			}
		}
	}
}

func TestRunAlg3Validation(t *testing.T) {
	g := graph.Path(4)
	eps := Eps{T: 2}
	if _, _, err := RunAlg3(g, nil, nil, 2, eps, congest.Options{}); err == nil {
		t.Error("empty source set accepted")
	}
	if _, _, err := RunAlg3(g, []int{0, 1}, []int{0}, 2, eps, congest.Options{}); err == nil {
		t.Error("mismatched delays accepted")
	}
	if _, _, err := RunAlg3(g, []int{9}, []int{0}, 2, eps, congest.Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, _, err := RunAlg3(g, []int{0}, []int{1 << 20}, 2, eps, congest.Options{}); err == nil {
		t.Error("oversized delay accepted")
	}
}
