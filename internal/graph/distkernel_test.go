package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// kernelCases is the graph family the workspace kernel is pinned
// against the reference implementations on: the deterministic shapes
// plus random weighted topologies (including the E14 spine-leaf fabric
// and parallel edges, which generators produce transiently).
func kernelCases() []*Graph {
	rng := rand.New(rand.NewSource(19))
	parallel := New(6)
	parallel.MustAddEdge(0, 1, 3)
	parallel.MustAddEdge(0, 1, 1) // parallel edge, different weight
	parallel.MustAddEdge(1, 2, 2)
	parallel.MustAddEdge(2, 3, 5)
	parallel.MustAddEdge(3, 4, 1)
	parallel.MustAddEdge(0, 4, 9)
	// node 5 isolated: unreachable pairs stay Inf
	return []*Graph{
		Path(9),
		Cycle(7),
		Star(8),
		Grid(4, 5),
		Barbell(5, 4),
		parallel,
		RandomWeights(RandomConnected(40, 110, rng), 11, rng),
		RandomWeights(LowDiameterExpanderish(48, 4, rng), 16, rng),
		RandomWeights(SpineLeaf(3, 5, 4, 2, 1), 7, rng),
		RandomWeights(DiameterControlled(36, 6, rng), 9, rng),
	}
}

func TestWorkspaceBoundedHopMatchesReference(t *testing.T) {
	for gi, g := range kernelCases() {
		ws := NewDistWorkspace(g)
		var got []int64
		for src := 0; src < g.N(); src += 1 + g.N()/7 {
			for _, l := range []int{0, 1, 2, 3, g.N() / 2, g.N(), 3 * g.N()} {
				want := g.BoundedHopDist(src, l)
				got = ws.BoundedHopDistInto(got, src, l)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d: BoundedHopDistInto(%d, %d) diverged from reference", gi, src, l)
				}
			}
		}
	}
}

func TestWorkspaceDijkstraMatchesReference(t *testing.T) {
	for gi, g := range kernelCases() {
		ws := NewDistWorkspace(g)
		if ws.ArcCount() != 2*g.M() || ws.MaxWeight() != g.MaxWeight() {
			t.Fatalf("graph %d: ArcCount %d, MaxWeight %d; want 2m = %d and %d",
				gi, ws.ArcCount(), ws.MaxWeight(), 2*g.M(), g.MaxWeight())
		}
		var d, h []int64
		for src := 0; src < g.N(); src++ {
			wantD, wantH := g.DijkstraHops(src)
			d, h = ws.DijkstraHopsInto(d, h, src)
			if !reflect.DeepEqual(d, wantD) || !reflect.DeepEqual(h, wantH) {
				t.Fatalf("graph %d: DijkstraHopsInto(%d) diverged from reference", gi, src)
			}
		}
	}
}

func TestWorkspaceBFSMatchesReference(t *testing.T) {
	for gi, g := range kernelCases() {
		ws := NewDistWorkspace(g)
		var d []int64
		for src := 0; src < g.N(); src++ {
			want := g.BFS(src)
			d = ws.BFSInto(d, src)
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("graph %d: BFSInto(%d) diverged from reference", gi, src)
			}
		}
	}
}

// TestWorkspaceScaledBoundedHop pins the shifted-ceiling overlay form
// against a direct Bellman-Ford under pre-rounded weights: the kernel's
// (num + 2^shift - 1) >> shift must equal relaxing with ⌈num/2^shift⌉.
func TestWorkspaceScaledBoundedHop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for gi, g := range kernelCases() {
		ws := NewDistWorkspace(g)
		num := ws.ArcWeights(nil)
		den := int64(2 * 5 * 8) // a 2Tℓ-style common denominator
		for a := range num {
			num[a] *= den
		}
		for _, shift := range []uint{0, 1, 3, 5} {
			scaled := g.Reweight(func(w int64) int64 {
				return (w*den + int64(1)<<shift - 1) >> shift
			})
			src := rng.Intn(g.N())
			l := 1 + rng.Intn(g.N())
			want := scaled.BoundedHopDist(src, l)
			got := ws.BoundedHopInto(nil, src, l, num, shift, Inf)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d shift %d: scaled kernel diverged from reweighted reference", gi, shift)
			}
		}
	}
}

// TestWorkspaceCapPruning: with a cap, every finite output must be a
// path length <= cap, and uncapped outputs <= cap must be preserved —
// the exact pruning contract the rounded-distance scales rely on.
func TestWorkspaceCapPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := RandomWeights(RandomConnected(30, 70, rng), 13, rng)
	ws := NewDistWorkspace(g)
	full := g.BoundedHopDist(4, 12)
	for _, cap64 := range []int64{1, 5, 20, 100} {
		got := ws.BoundedHopInto(nil, 4, 12, nil, 0, cap64)
		for v, dv := range got {
			if dv != Inf && dv > cap64 {
				t.Fatalf("cap %d: output %d at node %d exceeds cap", cap64, dv, v)
			}
			if full[v] != Inf && full[v] <= cap64 && dv > full[v] {
				t.Fatalf("cap %d: node %d got %d, reference reaches %d within cap", cap64, v, dv, full[v])
			}
		}
	}
}

// disjointUnion concatenates the parts into one graph with no edges
// between them: the adversarial disconnected shape of the differential
// corpus (unreached vertices must stay Inf).
func disjointUnion(parts ...*Graph) *Graph {
	n := 0
	for _, p := range parts {
		n += p.N()
	}
	g := New(n)
	off := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			g.MustAddEdge(e.U+off, e.V+off, e.W)
		}
		off += p.N()
	}
	return g
}

// adversarialGraphs are the shapes the engines break on first if
// anything is wrong: stars (the frontier jumps from 1 to n-1 in one
// hop, flipping BFS bottom-up at once), long paths (the frontier never
// grows, so BFS must stay top-down), high-degree spine-leaf fabrics
// (the Beamer bottom-up regime), and disconnected unions (unreached
// components must stay Inf). Sizes straddle the 64-bit word boundary
// of the bitset.
func adversarialGraphs() []*Graph {
	rng := rand.New(rand.NewSource(67))
	return []*Graph{
		Star(65),
		RandomWeights(Star(64), 9, rng),
		Path(130),
		RandomWeights(Path(63), 5, rng),
		RandomWeights(SpineLeaf(4, 8, 8, 2, 1), 11, rng),
		disjointUnion(Star(17), Path(9), RandomWeights(RandomConnected(20, 50, rng), 7, rng)),
		disjointUnion(New(3), Cycle(5)),
		New(1),
	}
}

// refCappedMul is the golden reference for BoundedHopInto with the
// overlay num[a] = w(a)·mul: Bellman-Ford on weights ⌈w·mul/2^shift⌉
// (computed by Reweight, a pure function of the edge weight),
// post-filtered at the cap (exact: rounded weights are positive, so no
// path's prefix is longer than the path, and pruning during the run
// discards exactly the post-filtered entries).
func refCappedMul(g *Graph, src, l int, mul int64, shift uint, cap64 int64) []int64 {
	scaled := g.Reweight(func(w int64) int64 {
		return (w*mul + int64(1)<<shift - 1) >> shift
	})
	ref := scaled.BoundedHopDist(src, l)
	for v, dv := range ref {
		if dv != Inf && dv > cap64 {
			ref[v] = Inf
		}
	}
	return ref
}

// TestBoundedHopDifferential pins BoundedHopInto against the golden
// full-edge-scan reference over the kernel corpus plus the adversarial
// shapes, sweeping sources, hop budgets, rounding shifts, and prune
// caps. Distances must be bit-identical in every cell.
func TestBoundedHopDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for gi, g := range append(kernelCases(), adversarialGraphs()...) {
		n := g.N()
		ws := NewDistWorkspace(g)
		const mul = int64(48) // a 2Tℓ-style common multiplier
		num := ws.ArcWeights(nil)
		for a := range num {
			num[a] *= mul
		}
		var got []int64
		srcs := []int{0, n / 2, n - 1}
		if n > 3 {
			srcs = append(srcs, rng.Intn(n))
		}
		for _, src := range srcs {
			for _, l := range []int{1, 2, n/2 + 1, n, 2 * n} {
				for _, shift := range []uint{0, 2, 5} {
					for _, cap64 := range []int64{Inf, 40 * mul, 3 * mul} {
						got = ws.BoundedHopInto(got, src, l, num, shift, cap64)
						if want := refCappedMul(g, src, l, mul, shift, cap64); !reflect.DeepEqual(got, want) {
							t.Fatalf("graph %d src=%d l=%d shift=%d cap=%d: diverged from golden reference",
								gi, src, l, shift, cap64)
						}
					}
				}
			}
		}
	}
}

// TestBFSDifferential pins the direction-optimizing BFSInto against the
// reference Graph.BFS (levels are canonical, so the direction each
// level ran must be invisible in the output). The check is not
// vacuous: some corpus run must flip top-down → bottom-up → top-down,
// so both directions and both transitions are exercised.
func TestBFSDifferential(t *testing.T) {
	roundTrip := false
	for gi, g := range append(kernelCases(), adversarialGraphs()...) {
		ws := NewDistWorkspace(g)
		var got []int64
		for src := 0; src < g.N(); src++ {
			got = ws.BFSInto(got, src)
			if !reflect.DeepEqual(got, g.BFS(src)) {
				t.Fatalf("graph %d src=%d: BFS diverged from reference", gi, src)
			}
			roundTrip = roundTrip || pullsRoundTrip(ws.bfsPulls)
		}
	}
	if !roundTrip {
		t.Fatal("no corpus BFS went top-down → bottom-up → top-down")
	}
}

// pullsRoundTrip reports whether a BFS level trace contains a top-down
// level, then a bottom-up one, then a top-down one again.
func pullsRoundTrip(pulls []bool) bool {
	stage := 0
	for _, up := range pulls {
		if up == (stage == 1) {
			stage++
		}
	}
	return stage >= 3
}

// TestDijkstraDifferential pins the heap engine's (distance, hops)
// labels against the reference Graph.DijkstraHops over the kernel
// corpus plus the adversarial shapes.
func TestDijkstraDifferential(t *testing.T) {
	for gi, g := range append(kernelCases(), adversarialGraphs()...) {
		ws := NewDistWorkspace(g)
		var d, h []int64
		for src := 0; src < g.N(); src += 1 + g.N()/7 {
			wantD, wantH := g.DijkstraHops(src)
			d, h = ws.DijkstraHopsInto(d, h, src)
			if !reflect.DeepEqual(d, wantD) || !reflect.DeepEqual(h, wantH) {
				t.Fatalf("graph %d src=%d: Dijkstra diverged from reference", gi, src)
			}
		}
	}
}

// TestBFSSwitchHeuristicsMonotone is the property suite of Beamer's pure
// crossover functions: bfsGoesBottomUp is monotone in the frontier's arc
// volume and antitone in the unexplored arc volume, and bfsGoesTopDown
// is antitone in the frontier size.
func TestBFSSwitchHeuristicsMonotone(t *testing.T) {
	for _, n := range []int{1, 2, 7, 31, 64, 65, 1000} {
		prev := true
		for f := 0; f <= n; f++ {
			td := bfsGoesTopDown(f, n)
			if !prev && td {
				t.Fatalf("n=%d: bfsGoesTopDown not antitone at f=%d", n, f)
			}
			prev = td
		}
	}
	for _, unexplored := range []int{0, 10, 997, 100000} {
		prev := false
		for fa := 0; fa <= 2*unexplored+30; fa += 1 + unexplored/50 {
			b := bfsGoesBottomUp(fa, unexplored)
			if prev && !b {
				t.Fatalf("unexplored=%d: bfsGoesBottomUp not monotone at frontierArcs=%d", unexplored, fa)
			}
			prev = b
		}
	}
	for _, fa := range []int{1, 10, 500} {
		prev := true
		for u := 0; u <= 30*fa; u += 1 + fa/10 {
			b := bfsGoesBottomUp(fa, u)
			if !prev && b {
				t.Fatalf("frontierArcs=%d: bfsGoesBottomUp not antitone at unexplored=%d", fa, u)
			}
			prev = b
		}
	}
}

// TestAutoModeTraceMatchesHeuristic replays Beamer's direction switch
// over the reference BFS levels — each level's size and incident arc
// volume — and asserts BFSInto's per-level direction trace matches
// exactly: switching happens only at level boundaries, and only when
// the pure heuristics say so.
func TestAutoModeTraceMatchesHeuristic(t *testing.T) {
	for gi, g := range append(kernelCases(), adversarialGraphs()...) {
		n := g.N()
		ws := NewDistWorkspace(g)
		var buf []int64
		for src := 0; src < n; src += 1 + n/5 {
			ref := g.BFS(src)
			var sizes, arcs []int
			for v, lv := range ref {
				if lv == Inf {
					continue
				}
				for int(lv) >= len(sizes) {
					sizes, arcs = append(sizes, 0), append(arcs, 0)
				}
				sizes[lv]++
				arcs[lv] += g.Degree(v)
			}
			buf = ws.BFSInto(buf, src)
			if len(ws.bfsPulls) != len(sizes) {
				t.Fatalf("graph %d src=%d: %d traced levels, reference has %d", gi, src, len(ws.bfsPulls), len(sizes))
			}
			unexplored := 2*g.M() - arcs[0]
			up := false
			for lv := range sizes {
				if !up && bfsGoesBottomUp(arcs[lv], unexplored) {
					up = true
				} else if up && bfsGoesTopDown(sizes[lv], n) {
					up = false
				}
				if ws.bfsPulls[lv] != up {
					t.Fatalf("graph %d src=%d level %d (frontier %d): bottom-up=%v, heuristic says %v",
						gi, src, lv, sizes[lv], ws.bfsPulls[lv], up)
				}
				if lv+1 < len(sizes) {
					unexplored -= arcs[lv+1]
				}
			}
		}
	}
}

// TestDistKernelAllocGuard: every engine's scratch, the bottom-up BFS
// bitsets included, comes from the workspace — a warm workspace
// computes with zero allocations. This is the CI allocation guard for
// the distance kernel's steady state.
func TestDistKernelAllocGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := RandomWeights(RandomConnected(200, 800, rng), 9, rng)
	ws := NewDistWorkspace(g)
	var dst, hops []int64
	for src := 0; src < 3; src++ {
		dst = ws.BoundedHopDistInto(dst, src, 32)
		dst = ws.BFSInto(dst, src)
		dst, hops = ws.DijkstraHopsInto(dst, hops, src)
	}
	pulled := false
	for _, up := range ws.bfsPulls {
		pulled = pulled || up
	}
	if !pulled {
		t.Fatal("guard graph never runs a bottom-up BFS level; the bitset path is unguarded")
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = ws.BoundedHopDistInto(dst, 5, 32)
		dst = ws.BFSInto(dst, 6)
		dst, hops = ws.DijkstraHopsInto(dst, hops, 7)
	})
	if allocs != 0 {
		t.Fatalf("warm workspace allocates %.0f objects per call, want 0", allocs)
	}
}

// FuzzKernelEquivalence fuzzes random graphs, sources, and scale
// parameters: bounded-hop distances, BFS levels, and Dijkstra labels
// must each be bit-identical to the golden references. The corpus is
// seeded with the adversarial shapes (star, long path, spine-leaf,
// disconnected union).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(3), uint8(10), uint8(0), uint8(0)) // random connected
	f.Add(int64(2), uint8(1), uint8(64), uint8(8), uint8(2), uint8(1), uint8(1))  // star, word boundary
	f.Add(int64(3), uint8(2), uint8(90), uint8(1), uint8(80), uint8(0), uint8(2)) // long path
	f.Add(int64(4), uint8(3), uint8(70), uint8(12), uint8(6), uint8(3), uint8(0)) // spine-leaf
	f.Add(int64(5), uint8(4), uint8(50), uint8(5), uint8(4), uint8(2), uint8(1))  // disconnected union
	f.Add(int64(6), uint8(5), uint8(33), uint8(7), uint8(9), uint8(5), uint8(2))  // grid
	f.Fuzz(func(t *testing.T, seed int64, shape, nRaw, wRaw, lRaw, shiftRaw, capRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%96
		maxw := 1 + int64(wRaw)%24
		var g *Graph
		switch shape % 6 {
		case 0:
			g = RandomWeights(RandomConnected(n, 3*n, rng), maxw, rng)
		case 1:
			g = RandomWeights(Star(n), maxw, rng)
		case 2:
			g = Path(n)
		case 3:
			g = RandomWeights(SpineLeaf(2+n/24, 3+n/16, 4, 2, 1), maxw, rng)
		case 4:
			g = disjointUnion(Star(2+n/2), RandomWeights(Path(2+n/3), maxw, rng))
		default:
			g = RandomWeights(Grid(2+n/16, 3), maxw, rng)
		}
		n = g.N()
		src := rng.Intn(n)
		l := 1 + int(lRaw)%(n+3)
		shift := uint(shiftRaw) % 6
		cap64 := Inf
		if capRaw%3 == 1 {
			cap64 = 1 + rng.Int63n(int64(n)*maxw+1)
		}

		ws := NewDistWorkspace(g)
		if got, want := ws.BoundedHopInto(nil, src, l, nil, shift, cap64), refCappedMul(g, src, l, 1, shift, cap64); !reflect.DeepEqual(got, want) {
			t.Fatalf("bounded-hop diverged from golden reference (n=%d src=%d l=%d shift=%d cap=%d)", n, src, l, shift, cap64)
		}
		if got := ws.BFSInto(nil, src); !reflect.DeepEqual(got, g.BFS(src)) {
			t.Fatalf("BFS diverged from reference (n=%d src=%d)", n, src)
		}
		d, h := ws.DijkstraHopsInto(nil, nil, src)
		if wantD, wantH := g.DijkstraHops(src); !reflect.DeepEqual(d, wantD) || !reflect.DeepEqual(h, wantH) {
			t.Fatalf("Dijkstra diverged from reference (n=%d src=%d)", n, src)
		}
	})
}

func TestDigestDistinguishesGraphs(t *testing.T) {
	a := Path(6)
	b := Path(6)
	if a.Digest() != b.Digest() {
		t.Fatal("identical graphs digest differently")
	}
	c := Path(7)
	if a.Digest() == c.Digest() {
		t.Fatal("different sizes digest equal")
	}
	d := Path(6)
	d.MustAddEdge(0, 5, 3)
	if a.Digest() == d.Digest() {
		t.Fatal("extra edge not reflected in digest")
	}
	rng := rand.New(rand.NewSource(37))
	e := RandomWeights(Path(6), 9, rng)
	if a.Digest() == e.Digest() {
		t.Fatal("weights not reflected in digest")
	}
}
