package dist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qcongest/internal/graph"
)

// refRoundedBoundedHopDist is the pre-kernel reference implementation
// of the rounded bounded-hop distances (the full-edge-scan Bellman-Ford
// the repository shipped before the frontier kernel), kept verbatim as
// the golden oracle: the kernel's numerators must match it bit for bit.
func refRoundedBoundedHopDist(g *graph.Graph, src, l int, eps Eps) []int64 {
	n := g.N()
	den := eps.Den(l)
	cap64 := (1 + 2*eps.T) * int64(l)
	w := g.MaxWeight()
	if w < 1 {
		w = 1
	}
	imax := IMax(n, w, eps)

	out := make([]int64, n)
	for i := range out {
		out[i] = graph.Inf
	}
	cur := make([]int64, n)
	next := make([]int64, n)
	for i := 0; i <= imax; i++ {
		scale := int64(1) << uint(i)
		for v := range cur {
			cur[v] = graph.Inf
		}
		cur[src] = 0
		for hop := 0; hop < l; hop++ {
			copy(next, cur)
			changed := false
			for _, e := range g.Edges() {
				w := ceilDiv(e.W*den, scale)
				if cur[e.U] != graph.Inf && cur[e.U]+w < next[e.V] && cur[e.U]+w <= cap64 {
					next[e.V] = cur[e.U] + w
					changed = true
				}
				if cur[e.V] != graph.Inf && cur[e.V]+w < next[e.U] && cur[e.V]+w <= cap64 {
					next[e.U] = cur[e.V] + w
					changed = true
				}
			}
			cur, next = next, cur
			if !changed {
				break
			}
		}
		for v, bh := range cur {
			if bh == graph.Inf {
				continue
			}
			if scaled := bh * scale; scaled < out[v] {
				out[v] = scaled
			}
		}
	}
	return out
}

// goldenGraphs is the E1–E14 workload family: the deterministic shapes
// of the unit suites, the random weighted graphs of the scaling and
// quality experiments (E1–E5), the barbell of the determinism suite,
// and the E14 spine-leaf fabric.
func goldenGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(41))
	return []*graph.Graph{
		graph.Path(11),
		graph.Cycle(9),
		graph.Star(8),
		graph.Grid(4, 4),
		graph.Barbell(5, 4),
		graph.RandomWeights(graph.RandomConnected(30, 80, rng), 9, rng),
		graph.RandomWeights(graph.LowDiameterExpanderish(36, 4, rng), 16, rng),
		graph.RandomWeights(graph.DiameterControlled(32, 6, rng), 12, rng),
		graph.RandomWeights(graph.SpineLeaf(3, 5, 4, 2, 1), 7, rng),
	}
}

// TestGoldenKernelEquivalence pins the frontier kernel's numerators bit
// identical to the reference implementation across the experiment
// workload family, several sources, hop budgets, and ε values.
func TestGoldenKernelEquivalence(t *testing.T) {
	for gi, g := range goldenGraphs() {
		for _, eps := range []Eps{{T: 1}, {T: 4}, EpsForN(g.N())} {
			for _, l := range []int{1, 2, 5, g.N() / 2, g.N()} {
				tab := NewRowTable(g, l, eps)
				for src := 0; src < g.N(); src += 1 + g.N()/5 {
					want := refRoundedBoundedHopDist(g, src, l, eps)
					got := make([]int64, g.N())
					tab.roundedRowInto(got, src)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("graph %d, eps T=%d, l=%d, src=%d: kernel diverged from reference",
							gi, eps.T, l, src)
					}
				}
			}
		}
	}
}

// TestGoldenSkeletonRows pins the full BuildSkeleton surface over the
// workload family and the adversarial shapes: every source row equals
// the reference computation, and the overlay and every approximate
// eccentricity are reproduced by a rebuild on the recycled per-set
// arena (the overlay assembly is a deterministic function of the rows).
func TestGoldenSkeletonRows(t *testing.T) {
	for gi, g := range append(goldenGraphs(), adversarialDistGraphs()...) {
		eps := EpsForN(g.N())
		var s []int
		for v := 0; v < g.N(); v += 3 {
			s = append(s, v)
		}
		l, k := g.N()/2+1, 2
		sk := BuildSkeleton(g, s, l, k, eps)
		for j, v := range sk.Sources {
			want := refRoundedBoundedHopDist(g, v, l, eps)
			if got := sk.bufs.srcRows[j]; !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d: row of source %d diverged from reference", gi, v)
			}
		}
		overlay, eccs := snapshot(sk)
		sk.Release()
		re := BuildSkeleton(g, s, l, k, eps)
		if o, e := snapshot(re); !reflect.DeepEqual(o, overlay) || !reflect.DeepEqual(e, eccs) {
			t.Fatalf("graph %d: rebuild on a recycled arena diverged", gi)
		}
		re.Release()
	}
}

// TestRowTableSharedEquivalence checks the shared row table against
// standalone builds on the TestGoldenSkeletonRows corpus plus random
// connected graphs. Many random sets (duplicates included) are built
// over one table in a shuffled order and kept alive together, then
// queried at every vertex in a shuffled order, so rows one skeleton
// fills serve the others. Each must equal a fresh BuildSkeleton of its
// set in Sources, overlay and ẽ at every vertex.
func TestRowTableSharedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	graphs := append(goldenGraphs(), adversarialDistGraphs()...)
	for i := 0; i < 6; i++ {
		n := 10 + rng.Intn(40)
		graphs = append(graphs, graph.RandomWeights(graph.RandomConnected(n, 2*n, rng), 1+rng.Int63n(30), rng))
	}
	for gi, g := range graphs {
		n := g.N()
		l := []int{2, n/3 + 1, n}[gi%3]
		eps := EpsForN(n)
		tab := NewRowTable(g, l, eps)
		const sets = 12
		ss, ks := make([][]int, sets), make([]int, sets)
		for i := range ss {
			p := float64(1+rng.Intn(8)) / float64(n)
			for v := 0; v < n; v++ {
				if rng.Float64() < p {
					ss[i] = append(ss[i], v)
				}
			}
			ss[i] = append(ss[i], rng.Intn(n), rng.Intn(n))
			ks[i] = 1 + rng.Intn(4)
		}
		shared := make([]*Skeleton, sets)
		for _, i := range rng.Perm(sets) {
			shared[i] = tab.Skeleton(ss[i], ks[i])
		}
		for _, i := range rng.Perm(sets) {
			sk, ref := shared[i], BuildSkeleton(g, ss[i], l, ks[i], eps)
			if !reflect.DeepEqual(sk.Sources, ref.Sources) {
				t.Fatalf("graph %d, set %d: Sources %v, standalone %v", gi, i, sk.Sources, ref.Sources)
			}
			if !reflect.DeepEqual(sk.bufs.overlay, ref.bufs.overlay) {
				t.Fatalf("graph %d, set %d: overlay differs from the standalone build", gi, i)
			}
			for _, v := range rng.Perm(n) {
				if got, want := sk.ApproxEccentricity(v), ref.ApproxEccentricity(v); got != want {
					t.Fatalf("graph %d, set %d: ẽ(%d) = %d over the shared table, %d standalone", gi, i, v, got, want)
				}
			}
			ref.Release()
			sk.Release()
		}
	}
}

// refApproxEccentricity is the vertex-major reference of the ẽ query,
// over reference rows and the skeleton's overlay: entry costs to every
// skeleton node, then for each vertex u the min over t of entry[t] +
// d̃^ℓ(t, u), skipping Inf terms explicitly, and the max over u.
func refApproxEccentricity(sk *Skeleton, rows map[int][]int64, v int) int64 {
	row := func(u int) []int64 {
		if rows[u] == nil {
			rows[u] = refRoundedBoundedHopDist(sk.G, u, sk.L, sk.Eps)
		}
		return rows[u]
	}
	rowV := row(v)
	b := len(sk.Sources)
	overlay := sk.bufs.overlay
	entry := make([]int64, b)
	for t, u := range sk.Sources {
		entry[t] = rowV[u]
	}
	if j := slices.Index(sk.Sources, v); j >= 0 {
		for t := range entry {
			entry[t] = min(entry[t], overlay[j*b+t])
		}
	} else {
		for j, u := range sk.Sources {
			for t := 0; t < b; t++ {
				if rowV[u] != graph.Inf && overlay[j*b+t] != graph.Inf {
					entry[t] = min(entry[t], rowV[u]+overlay[j*b+t])
				}
			}
		}
	}
	var ecc int64
	for u := 0; u < sk.G.N(); u++ {
		best := rowV[u]
		for t, s := range sk.Sources {
			if rt := row(s); entry[t] != graph.Inf && rt[u] != graph.Inf {
				best = min(best, entry[t]+rt[u])
			}
		}
		ecc = max(ecc, best)
	}
	return min(ecc, graph.Inf)
}

// TestApproxEccentricityMatchesVertexMajor checks the row-streamed ẽ
// query against the vertex-major reference at every vertex. Hop
// budgets as small as 1 leave Inf entries in the rows and Inf entry
// costs to skeleton nodes, which the streamed loop adds without a test;
// the case counts assert both occur.
func TestApproxEccentricityMatchesVertexMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	graphs := append(goldenGraphs(), adversarialDistGraphs()...)
	for i := 0; i < 4; i++ {
		n := 10 + rng.Intn(30)
		graphs = append(graphs, graph.RandomWeights(graph.RandomConnected(n, n+rng.Intn(n), rng), 1+rng.Int63n(20), rng))
	}
	infEntries, infEccs, finiteEccs := 0, 0, 0
	for gi, g := range graphs {
		n := g.N()
		eps := EpsForN(n)
		for _, l := range []int{1, 2, 4, n} {
			var s []int
			for v := 0; v < n; v++ {
				if rng.Intn(4) == 0 {
					s = append(s, v)
				}
			}
			s = append(s, rng.Intn(n))
			sk := BuildSkeleton(g, s, l, 1+rng.Intn(3), eps)
			rows := map[int][]int64{}
			for v := 0; v < n; v++ {
				got, want := sk.ApproxEccentricity(v), refApproxEccentricity(sk, rows, v)
				if got != want {
					t.Fatalf("graph %d, l=%d: ẽ(%d) = %d, vertex-major reference %d", gi, l, v, got, want)
				}
				if slices.Contains(sk.bufs.entry, graph.Inf) {
					infEntries++
				}
				if got == graph.Inf {
					infEccs++
				} else {
					finiteEccs++
				}
			}
			sk.Release()
		}
	}
	if infEntries == 0 || infEccs == 0 || finiteEccs == 0 {
		t.Fatalf("cases missed a regime: %d queries with Inf entries, %d Inf answers, %d finite", infEntries, infEccs, finiteEccs)
	}
}

// snapshot copies a skeleton's overlay and its eccentricity numerators
// over every vertex.
func snapshot(sk *Skeleton) (overlay, eccs []int64) {
	overlay = append([]int64(nil), sk.bufs.overlay...)
	eccs = make([]int64, sk.G.N())
	for v := range eccs {
		eccs[v] = sk.ApproxEccentricity(v)
	}
	return overlay, eccs
}

// TestSkeletonDeduplicatesSources is the duplicate-source regression
// test: repeats in Sources previously kept the first index in the
// lookup but still allocated one overlay column per occurrence. The
// skeleton must collapse duplicates and answer queries identically to
// the deduplicated build.
func TestSkeletonDeduplicatesSources(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := graph.RandomWeights(graph.RandomConnected(20, 45, rng), 8, rng)
	eps := EpsForN(g.N())
	dup := []int{4, 9, 4, 0, 9, 4, 13, 0}
	uniq := []int{4, 9, 0, 13}

	skDup := BuildSkeleton(g, dup, 12, 2, eps)
	skUniq := BuildSkeleton(g, uniq, 12, 2, eps)
	if !reflect.DeepEqual(skDup.Sources, uniq) {
		t.Fatalf("Sources not deduplicated in order: %v", skDup.Sources)
	}
	if len(skDup.bufs.overlay) != len(uniq)*len(uniq) {
		t.Fatalf("overlay holds %d entries, want %d (one column per unique source)",
			len(skDup.bufs.overlay), len(uniq)*len(uniq))
	}
	for v := 0; v < g.N(); v++ {
		if a, b := skDup.ApproxEccentricity(v), skUniq.ApproxEccentricity(v); a != b {
			t.Fatalf("ẽ(%d) differs between duplicated (%d) and unique (%d) source lists", v, a, b)
		}
	}
}

// TestSkeletonReleaseReuse: a released per-set arena serves a skeleton
// of a different graph with results identical to a fresh build (pooled
// state fully reset).
func TestSkeletonReleaseReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	big := graph.RandomWeights(graph.RandomConnected(30, 70, rng), 9, rng)
	small := graph.RandomWeights(graph.Cycle(7), 5, rng)
	eps := EpsForN(big.N())

	skBig := BuildSkeleton(big, []int{0, 5, 11, 20}, 15, 2, eps)
	for v := 0; v < big.N(); v++ {
		skBig.ApproxEccentricity(v)
	}
	skBig.Release()

	reused := BuildSkeleton(small, []int{0, 3, 5}, 6, 2, eps)
	skFresh := BuildSkeleton(small, []int{0, 3, 5}, 6, 2, eps)
	for v := 0; v < small.N(); v++ {
		if a, b := reused.ApproxEccentricity(v), skFresh.ApproxEccentricity(v); a != b {
			t.Fatalf("recycled arena: ẽ(%d) = %d, fresh build says %d", v, a, b)
		}
	}
	reused.Release()
}

// TestSkeletonConcurrentQueries exercises the query-path mutex: many
// goroutines querying one skeleton (including lazy non-source rows), or
// skeletons of one shared row table, must agree with a sequential pass.
// Run under -race in CI.
func TestSkeletonConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomWeights(graph.RandomConnected(24, 60, rng), 7, rng)
	eps := EpsForN(g.N())
	sk := BuildSkeleton(g, []int{1, 6, 12, 18}, 10, 2, eps)

	want := make([]int64, g.N())
	ref := BuildSkeleton(g, []int{1, 6, 12, 18}, 10, 2, eps)
	for v := 0; v < g.N(); v++ {
		want[v] = ref.ApproxEccentricity(v)
	}

	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for v := 0; v < g.N(); v++ {
				u := (v + w*5) % g.N()
				if got := sk.ApproxEccentricity(u); got != want[u] {
					done <- &mismatchErr{u, got, want[u]}
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Skeletons of one shared table, built and queried from several
	// goroutines at once, fill the table's rows concurrently.
	sets := [][]int{{1, 6, 12, 18}, {2, 6, 13}, {0, 18, 23, 7}, {1, 12}}
	wants := make([][]int64, len(sets))
	for i, s := range sets {
		ref := BuildSkeleton(g, s, 10, 2, eps)
		wants[i] = make([]int64, g.N())
		for v := range wants[i] {
			wants[i][v] = ref.ApproxEccentricity(v)
		}
		ref.Release()
	}
	tab := NewRowTable(g, 10, eps)
	for w := 0; w < 8; w++ {
		go func(w int) {
			i := w % len(sets)
			shared := tab.Skeleton(sets[i], 2)
			defer shared.Release()
			for v := 0; v < g.N(); v++ {
				u := (v + w*7) % g.N()
				if got := shared.ApproxEccentricity(u); got != wants[i][u] {
					done <- &mismatchErr{u, got, wants[i][u]}
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchErr struct {
	v         int
	got, want int64
}

func (e *mismatchErr) Error() string {
	return "concurrent ẽ query mismatch"
}

// allocGuardWorkload is the allocation guards' fixed shape: a random
// connected n = 96 graph and every sixth vertex as the skeleton set.
func allocGuardWorkload() (*graph.Graph, []int, Eps) {
	rng := rand.New(rand.NewSource(59))
	g := graph.RandomWeights(graph.RandomConnected(96, 300, rng), 10, rng)
	var s []int
	for v := 0; v < g.N(); v += 6 {
		s = append(s, v)
	}
	return g, s, EpsForN(g.N())
}

// TestBuildSkeletonAllocGuard is the allocation-regression guard of the
// CI workflow on the path internal/core runs: a skeleton built over a
// warm row table and released. A build allocates one object, the
// deduplicated source list: the Skeleton header stays on the caller's
// stack, the rows come from the table, the per-set scratch from
// skelPool, and the overlay sort allocates nothing.
func TestBuildSkeletonAllocGuard(t *testing.T) {
	g, s, eps := allocGuardWorkload()
	tab := NewRowTable(g, 24, eps)
	tab.Skeleton(s, 3).Release() // fill the rows and warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		tab.Skeleton(s, 3).Release()
	})
	// One object measured, plus slack. Under -race sync.Pool drops a
	// random share of Puts, and a build that misses skelPool allocates a
	// fresh per-set arena: 11 objects in all, so 12 bounds any mix.
	ceiling := 4.0
	if raceEnabled {
		ceiling = 12
	}
	if allocs > ceiling {
		t.Fatalf("warm-table Skeleton allocates %.0f objects per build, ceiling %.0f", allocs, ceiling)
	}
}

// TestBuildSkeletonKeptAllocGuard guards the sketch cache's path: a
// cold BuildSkeleton whose skeleton is kept, never released, so its
// private table, rows and per-set arena are all fresh allocations.
// The ceiling, 54 objects, is this path's count when standalone builds
// still drew their tables from a pool that this path never refilled:
// building over a plain NewRowTable must not cost it more.
func TestBuildSkeletonKeptAllocGuard(t *testing.T) {
	g, s, eps := allocGuardWorkload()
	allocs := testing.AllocsPerRun(20, func() {
		BuildSkeleton(g, s, 24, 3, eps)
	})
	if ceiling := 54.0; allocs > ceiling {
		t.Fatalf("kept BuildSkeleton allocates %.0f objects per build, ceiling %.0f", allocs, ceiling)
	}
}

// TestApproxEccentricityAllocGuard is the query-side allocation guard
// of the CI workflow: once a skeleton's rows are filled, an ẽ query
// runs in the arena's scratch and allocates nothing. The memo is
// cleared before each query so the guard times the real computation.
func TestApproxEccentricityAllocGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := graph.RandomWeights(graph.RandomConnected(96, 300, rng), 10, rng)
	var s []int
	for v := 0; v < g.N(); v += 6 {
		s = append(s, v)
	}
	sk := BuildSkeleton(g, s, 24, 3, EpsForN(g.N()))
	defer sk.Release()
	for v := 0; v < g.N(); v++ {
		sk.ApproxEccentricity(v)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for v := 0; v < g.N(); v++ {
			sk.bufs.ecc[v] = -1
			sk.ApproxEccentricity(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ẽ queries allocate %.1f objects per sweep of %d queries, want 0", allocs, g.N())
	}
}

// FuzzRoundedHopDist differentially fuzzes the frontier kernel against
// the ℓ-hop reference on arbitrary connected-ish weighted graphs.
func FuzzRoundedHopDist(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(3), uint8(4), uint8(2))
	f.Add(int64(7), uint8(20), uint8(60), uint8(9), uint8(8), uint8(5))
	f.Add(int64(99), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, wRaw, lRaw, tRaw uint8) {
		n := 2 + int(nRaw)%30
		m := int(mRaw) % (3 * n)
		maxw := 1 + int64(wRaw)%12
		l := 1 + int(lRaw)%(n+2)
		eps := Eps{T: 1 + int64(tRaw)%8}
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		// A random spanning tree plus extra random edges: connected, with
		// parallel edges permitted (AddEdge allows them).
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1+rng.Int63n(maxw))
		}
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.MustAddEdge(u, v, 1+rng.Int63n(maxw))
		}
		src := rng.Intn(n)
		want := refRoundedBoundedHopDist(g, src, l, eps)

		got := make([]int64, n)
		NewRowTable(g, l, eps).roundedRowInto(got, src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel diverged from ℓ-hop reference (n=%d m=%d l=%d T=%d src=%d)\n got %v\nwant %v",
				n, g.M(), l, eps.T, src, got, want)
		}
	})
}

// adversarialDistGraphs are the kernel-adversarial shapes at the
// skeleton layer: a star (the frontier jumps to n-1 in one hop), a long
// path (the frontier never grows), a high-degree spine-leaf fabric, and
// a disconnected union (unreached vertices stay Inf through the
// rounding scales).
func adversarialDistGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(61))
	disconnected := graph.New(44)
	for v := 1; v < 28; v++ {
		disconnected.MustAddEdge(rng.Intn(v), v, 1+rng.Int63n(9))
	}
	for v := 29; v < 44; v++ {
		disconnected.MustAddEdge(28+rng.Intn(v-28), v, 1+rng.Int63n(9))
	}
	return []*graph.Graph{
		graph.RandomWeights(graph.Star(65), 9, rng),
		graph.Path(80),
		graph.RandomWeights(graph.SpineLeaf(4, 8, 6, 2, 1), 11, rng),
		disconnected,
	}
}

// TestRoundedRowEarlyExitProperty checks the scale-loop early exit of
// roundedRowInto on random connected weighted graphs over several T, W
// and hop budgets. With ℓ ≥ n−1 every vertex settles and the exit
// fires; with a small ℓ some vertices stay unreached and every scale
// runs. Either way the row must equal the all-scales golden reference.
// It also asserts the finality lemma behind the exit directly: a
// vertex's first finite rescaled value is no more than its value at any
// later scale.
func TestRoundedRowEarlyExitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	exitFired, allScales := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(40)
		maxw := []int64{1, 5, 16, 100}[trial%4]
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1+rng.Int63n(maxw))
		}
		for i := rng.Intn(2 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.MustAddEdge(u, v, 1+rng.Int63n(maxw))
			}
		}
		for _, eps := range []Eps{{T: 1}, {T: 3}, EpsForN(n)} {
			for _, l := range []int{n - 1, n + 3, 2} {
				tab := NewRowTable(g, l, eps)
				src := rng.Intn(n)
				got := make([]int64, n)
				tab.roundedRowInto(got, src)
				if want := refRoundedBoundedHopDist(g, src, l, eps); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (n=%d W=%d T=%d l=%d src=%d): early-exit row diverged\n got %v\nwant %v",
						trial, n, maxw, eps.T, l, src, got, want)
				}

				// Finality lemma, scale by scale on a separate workspace.
				ws := graph.NewDistWorkspace(g)
				first := make([]int64, n)
				for v := range first {
					first[v] = graph.Inf
				}
				lastSettle := -1
				var scratch []int64
				for i := 0; i <= tab.imax; i++ {
					scratch = ws.BoundedHopInto(scratch, src, l, tab.wden, uint(i), tab.cap64)
					for v, bh := range scratch {
						if bh == graph.Inf {
							continue
						}
						scaled := bh << uint(i)
						if first[v] == graph.Inf {
							first[v] = scaled
							lastSettle = i
						} else if scaled < first[v] {
							t.Fatalf("trial %d (n=%d W=%d T=%d l=%d src=%d): vertex %d first settled at %d, scale %d gives %d",
								trial, n, maxw, eps.T, l, src, v, first[v], i, scaled)
						}
					}
				}
				if !reflect.DeepEqual(first, got) {
					t.Fatalf("trial %d: first finite values differ from the row", trial)
				}
				settledAll := true
				for _, d := range got {
					settledAll = settledAll && d != graph.Inf
				}
				switch {
				case settledAll && lastSettle < tab.imax:
					exitFired++
				case !settledAll:
					allScales++
				}
			}
		}
	}
	if exitFired == 0 || allScales == 0 {
		t.Fatalf("property cases did not cover both regimes: exit fired %d times, all scales ran %d times", exitFired, allScales)
	}
}
