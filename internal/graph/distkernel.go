package graph

// This file is the multi-source distance kernel: a reusable workspace
// that answers many shortest-path queries on one graph without
// re-allocating per call and without scanning the full edge list per
// Bellman-Ford hop.
//
// The naive per-call algorithms in shortestpath.go stay as the
// readable reference implementations; everything that computes
// distances from many sources (APSP, eccentricities, the skeleton
// builds of internal/dist and the sketch cache over them) goes through
// a DistWorkspace.
//
// Each problem has one engine, each bit-identical to its reference:
//
//   - bounded-hop (weighted) distances: the level-synchronous frontier
//     worklist — hop h relaxes only nodes improved during hop h-1,
//     using their end-of-hop-(h-1) values, which computes exactly the
//     same d^l arrays as the full edge scan, because a relaxation from
//     a node whose value did not change last hop was already applied
//     the hop before.
//   - unweighted BFS: the direction-optimizing (Beamer) variant, which
//     flips between top-down pushes and bottom-up bitset pulls at level
//     boundaries. Levels are canonical, so the output is the reference
//     BFS whatever direction each level ran.
//   - unbounded single-source distances: the binary-heap Dijkstra.

// DistWorkspace is a scratch arena for repeated distance computations
// on one graph: a flat CSR adjacency (built once), distance/frontier
// arrays, the BFS frontier bitsets, and a Dijkstra heap, all reused
// across calls. A workspace is NOT safe for concurrent use.
type DistWorkspace struct {
	adj *csrAdj

	hops  []int64 // hop-count scratch for DijkstraInto
	fval  []int64 // frontier value snapshot (start-of-hop distances)
	front []int32 // current frontier
	next  []int32 // next frontier
	inNxt []bool  // membership mark for next (sparsely cleared)
	heap  distHeap

	// Bottom-up BFS scratch: the current and next frontier bitsets.
	curBits frontierBits
	nxtBits frontierBits

	// bfsPulls records, per level of the last BFSInto call, whether the
	// level ran bottom-up: the Beamer switch-replay test replays
	// bfsGoesBottomUp/bfsGoesTopDown over the reference levels and
	// asserts the trace matches.
	bfsPulls []bool
}

// csrAdj is a workspace's flat adjacency: node u's directed arcs occupy to[head[u]:head[u+1]] with weights
// w[head[u]:head[u+1]], in the order AddEdge produced them. maxW is the
// hoisted maximum edge weight (computed once, not per query).
type csrAdj struct {
	n    int
	head []int32
	to   []int32
	w    []int64
	maxW int64
}

// NewDistWorkspace builds the CSR adjacency of g and returns a
// workspace over it. The graph must not gain edges while the workspace
// is in use.
func NewDistWorkspace(g *Graph) *DistWorkspace {
	n := g.N()
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(u)
	}
	adj := &csrAdj{
		n:    n,
		head: make([]int32, n+1),
		to:   make([]int32, 0, total),
		w:    make([]int64, 0, total),
	}
	for u := 0; u < n; u++ {
		for _, a := range g.Neighbors(u) {
			adj.to = append(adj.to, int32(a.To))
			adj.w = append(adj.w, a.W)
			if a.W > adj.maxW {
				adj.maxW = a.W
			}
		}
		adj.head[u+1] = int32(len(adj.to))
	}
	return &DistWorkspace{adj: adj}
}

// N returns the node count of the underlying graph.
func (ws *DistWorkspace) N() int { return ws.adj.n }

// ArcCount returns the number of directed arcs (2·|E|); per-arc weight
// overlays passed to BoundedHopInto must have this length.
func (ws *DistWorkspace) ArcCount() int { return len(ws.adj.to) }

// MaxWeight returns the hoisted maximum edge weight (0 for an edgeless
// graph), so multi-source callers stop rescanning the edge list per
// source.
func (ws *DistWorkspace) MaxWeight() int64 { return ws.adj.maxW }

// ArcWeights copies the CSR arc weights into dst (grown as needed) and
// returns it: the layout for per-arc weight overlays. dst[a] corresponds
// to the a-th directed arc in CSR order.
func (ws *DistWorkspace) ArcWeights(dst []int64) []int64 {
	dst = growInt64(dst, len(ws.adj.w))
	copy(dst, ws.adj.w)
	return dst
}

// grow helpers keep scratch capacity across calls.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	return s[:n]
}

// growInt32Cap returns an empty slice with capacity at least n, so
// BFS direction flips (bitset → worklist) can append n members without
// allocating on a warm workspace.
func growInt32Cap(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, 0, n)
	}
	return s[:0]
}

// BoundedHopDistInto writes the l-hop distances d^l_{G,w}(src, ·) into
// dst (grown as needed) and returns it — the workspace counterpart of
// Graph.BoundedHopDist, with frontier relaxation instead of full edge
// scans and no per-call allocation at steady state.
func (ws *DistWorkspace) BoundedHopDistInto(dst []int64, src, l int) []int64 {
	return ws.BoundedHopInto(dst, src, l, nil, 0, Inf)
}

// BoundedHopInto is the general bounded-hop kernel: at most l hops of
// relaxation from src, where arc a has weight ⌈arcNum[a]/2^shift⌉
// (arcNum nil selects the graph's own weights with shift 0), and any
// relaxation whose tentative distance would exceed cap is discarded.
// It writes the resulting distances into dst (grown as needed) and
// returns it; unreached nodes get Inf. The shifted-ceiling weight form
// is exactly the per-scale rounding of the paper's Algorithm 1
// (⌈w·2Tℓ/2^i⌉), hoisted here so the inner loop is an add and a shift
// instead of a 64-bit division.
//
// The engine is the level-synchronous worklist (see the file comment);
// the loop exits as soon as a hop improves nothing.
func (ws *DistWorkspace) BoundedHopInto(dst []int64, src, l int, arcNum []int64, shift uint, cap64 int64) []int64 {
	adj := ws.adj
	n := adj.n
	if src < 0 || src >= n {
		panic("graph: BoundedHopInto source out of range")
	}
	if arcNum == nil {
		arcNum = adj.w
	} else if len(arcNum) != len(adj.to) {
		panic("graph: BoundedHopInto arc weight overlay has wrong length")
	}
	dst = growInt64(dst, n)
	for i := range dst {
		dst[i] = Inf
	}
	dst[src] = 0
	if l > 0 {
		ws.runHops(dst, src, l, arcNum, shift, cap64)
	}
	return dst
}

// runHops is the worklist loop: at most l level-synchronous relaxation
// rounds, stopping early once a hop improves nothing.
func (ws *DistWorkspace) runHops(dst []int64, src, l int, arcNum []int64, shift uint, cap64 int64) {
	n := ws.adj.n
	round := int64(1)<<shift - 1
	ws.front = growInt32Cap(ws.front, n)
	ws.front = append(ws.front, int32(src))
	ws.next = growInt32Cap(ws.next, n)
	ws.inNxt = growBool(ws.inNxt, n)
	for hop := 0; hop < l && len(ws.front) > 0; hop++ {
		ws.sparseHop(dst, arcNum, round, shift, cap64)
	}
	ws.front = ws.front[:0]
}

// sparseHop runs one worklist hop: snapshot the frontier's start-of-hop
// values (relaxations during the hop must not read distances improved
// this hop — that would use l+1-hop paths), push relaxations along
// frontier arcs, and collect the improved nodes as the next frontier.
func (ws *DistWorkspace) sparseHop(dst []int64, arcNum []int64, round int64, shift uint, cap64 int64) {
	adj := ws.adj
	ws.fval = growInt64(ws.fval, len(ws.front))
	for i, u := range ws.front {
		ws.fval[i] = dst[u]
	}
	for i, u := range ws.front {
		du := ws.fval[i]
		for a := adj.head[u]; a < adj.head[u+1]; a++ {
			nd := du + (arcNum[a]+round)>>shift
			v := adj.to[a]
			if nd < dst[v] && nd <= cap64 {
				dst[v] = nd
				if !ws.inNxt[v] {
					ws.inNxt[v] = true
					ws.next = append(ws.next, v)
				}
			}
		}
	}
	for _, v := range ws.next {
		ws.inNxt[v] = false
	}
	ws.front, ws.next = ws.next, ws.front[:0]
}

// DijkstraInto writes d_{G,w}(src, ·) into dst (grown as needed) and
// returns it — the workspace counterpart of Graph.Dijkstra. The hop
// counts the algorithm tracks land in workspace scratch, not a
// per-call allocation.
func (ws *DistWorkspace) DijkstraInto(dst []int64, src int) []int64 {
	dst, ws.hops = ws.DijkstraHopsInto(dst, ws.hops, src)
	return dst
}

// DijkstraHopsInto is the workspace counterpart of Graph.DijkstraHops:
// weighted distances plus exact hop counts of minimum-weight paths
// (ties on weight broken by hops), with the heap and both output arrays
// reused across calls.
func (ws *DistWorkspace) DijkstraHopsInto(dst, hops []int64, src int) ([]int64, []int64) {
	adj := ws.adj
	n := adj.n
	if src < 0 || src >= n {
		panic("graph: DijkstraHopsInto source out of range")
	}
	dst = growInt64(dst, n)
	hops = growInt64(hops, n)
	for i := 0; i < n; i++ {
		dst[i] = Inf
		hops[i] = Inf
	}
	dst[src], hops[src] = 0, 0
	ws.heap = append(ws.heap[:0], distItem{node: src})
	for len(ws.heap) > 0 {
		it := ws.heapPop()
		if it.d > dst[it.node] || (it.d == dst[it.node] && it.hops > hops[it.node]) {
			continue
		}
		for a := adj.head[it.node]; a < adj.head[it.node+1]; a++ {
			v := int(adj.to[a])
			nd, nh := it.d+adj.w[a], it.hops+1
			if nd < dst[v] || (nd == dst[v] && nh < hops[v]) {
				dst[v], hops[v] = nd, nh
				ws.heapPush(distItem{node: v, d: nd, hops: nh})
			}
		}
	}
	return dst, hops
}

// heapPush and heapPop are the distHeap sift operations open-coded on
// the workspace's reusable slice: container/heap would box every
// distItem into an interface value, allocating per push.
func (ws *DistWorkspace) heapPush(it distItem) {
	h := append(ws.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.Less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	ws.heap = h
}

func (ws *DistWorkspace) heapPop() distItem {
	h := ws.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < last && h.Less(l, least) {
			least = l
		}
		if r < last && h.Less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	ws.heap = h
	return top
}

// BFSInto writes unweighted hop counts from src into dst (grown as
// needed) and returns it — the workspace counterpart of Graph.BFS. It
// is the level-synchronous direction-optimizing (Beamer) BFS: top-down
// levels flip to bottom-up pulls — which break at the first parented
// neighbor — when the frontier's arc volume dominates the unexplored
// arc volume, and back when the frontier thins. The crossover is
// consulted only at level boundaries, and levels are canonical (a
// vertex's level is its hop distance, whatever direction discovers
// it), so the output is the reference BFS.
func (ws *DistWorkspace) BFSInto(dst []int64, src int) []int64 {
	adj := ws.adj
	n := adj.n
	if src < 0 || src >= n {
		panic("graph: BFSInto source out of range")
	}
	dst = growInt64(dst, n)
	for i := range dst {
		dst[i] = Inf
	}
	dst[src] = 0
	ws.bfsPulls = ws.bfsPulls[:0]
	ws.front = growInt32Cap(ws.front, n)
	ws.front = append(ws.front, int32(src))
	ws.next = growInt32Cap(ws.next, n)
	frontN, frontArcs := 1, int(adj.head[src+1]-adj.head[src])
	unexplored := len(adj.to) - frontArcs
	bottomUp := false
	for level := int64(0); frontN > 0; level++ {
		if !bottomUp && bfsGoesBottomUp(frontArcs, unexplored) {
			bottomUp = true
			ws.curBits = growBits(ws.curBits, n)
			ws.curBits.fillFrom(ws.front)
			ws.nxtBits = growBits(ws.nxtBits, n)
		} else if bottomUp && bfsGoesTopDown(frontN, n) {
			bottomUp = false
			ws.front = ws.curBits.appendMembers(ws.front[:0])
		}
		ws.bfsPulls = append(ws.bfsPulls, bottomUp)
		if bottomUp {
			frontN, frontArcs = ws.bfsBottomUpLevel(dst, level)
		} else {
			frontN, frontArcs = ws.bfsTopDownLevel(dst, level)
		}
		unexplored -= frontArcs
	}
	ws.front = ws.front[:0]
	return dst
}

// Beamer's crossover thresholds. Bottom-up pulls break at the first
// parented neighbor, so they win once the frontier's arcs exceed a
// fraction of the arcs still incident to unvisited vertices, and lose
// again once the frontier thins to a small share of the vertices.
const (
	bfsUpArcDiv = 14 // bottom-up when frontier arcs > unexplored arcs / 14
	bfsDownDiv  = 24 // top-down when frontier < n/24
)

// bfsGoesBottomUp reports whether a BFS level with frontierArcs
// incident arcs should pull bottom-up, given the arc volume still
// incident to unvisited vertices. Monotone in frontierArcs, antitone in
// unexploredArcs.
func bfsGoesBottomUp(frontierArcs, unexploredArcs int) bool {
	return frontierArcs*bfsUpArcDiv > unexploredArcs
}

// bfsGoesTopDown reports whether a bottom-up BFS should return to
// top-down once the frontier holds f of n vertices. Antitone in f.
func bfsGoesTopDown(f, n int) bool { return f*bfsDownDiv < n }

// bfsTopDownLevel expands one level through the worklist, returning the
// next frontier's size and incident arc volume.
func (ws *DistWorkspace) bfsTopDownLevel(dst []int64, level int64) (int, int) {
	adj := ws.adj
	next := ws.next[:0]
	arcs := 0
	for _, u := range ws.front {
		for a := adj.head[u]; a < adj.head[u+1]; a++ {
			v := adj.to[a]
			if dst[v] == Inf {
				dst[v] = level + 1
				next = append(next, v)
				arcs += int(adj.head[v+1] - adj.head[v])
			}
		}
	}
	ws.front, ws.next = next, ws.front[:0]
	return len(next), arcs
}

// bfsBottomUpLevel expands one level by pulling: every unvisited vertex
// scans its arcs until it finds a frontier-marked neighbor (the early
// break is the direction-optimizing win on high-degree graphs).
func (ws *DistWorkspace) bfsBottomUpLevel(dst []int64, level int64) (int, int) {
	adj := ws.adj
	n := adj.n
	nxt := ws.nxtBits
	nxt.zero()
	cur := ws.curBits
	found, arcs := 0, 0
	for v := 0; v < n; v++ {
		if dst[v] != Inf {
			continue
		}
		for a := adj.head[v]; a < adj.head[v+1]; a++ {
			if cur.test(adj.to[a]) {
				dst[v] = level + 1
				nxt.set(int32(v))
				found++
				arcs += int(adj.head[v+1] - adj.head[v])
				break
			}
		}
	}
	ws.curBits, ws.nxtBits = nxt, cur
	return found, arcs
}
