package graph

import (
	"container/heap"
	"fmt"
)

// distItem is a priority-queue entry for Dijkstra variants.
type distItem struct {
	node int
	d    int64
	hops int64 // secondary key for hop-distance Dijkstra
}

type distHeap []distItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].hops < h[j].hops
}
func (h distHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)       { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() (out any)   { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func (h *distHeap) push(it distItem) { heap.Push(h, it) }
func (h *distHeap) pop() distItem    { return heap.Pop(h).(distItem) }

// Dijkstra returns d_{G,w}(src, v) for every node v. Unreachable nodes get
// Inf.
func (g *Graph) Dijkstra(src int) []int64 {
	d, _ := g.DijkstraHops(src)
	return d
}

// DijkstraHops returns, for every node v, the weighted distance
// d_{G,w}(src, v) and the hop distance h_{G,w}(src, v): the minimum number
// of edges over all shortest (minimum-weight) paths from src to v (§3.1).
// Ties on weight are broken by hop count, which computes h exactly.
func (g *Graph) DijkstraHops(src int) (dist, hops []int64) {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: Dijkstra source %d out of range [0,%d)", src, g.n))
	}
	g.ensureAdj()
	dist = make([]int64, g.n)
	hops = make([]int64, g.n)
	for i := range dist {
		dist[i] = Inf
		hops[i] = Inf
	}
	dist[src], hops[src] = 0, 0
	pq := &distHeap{{node: src}}
	for pq.Len() > 0 {
		it := pq.pop()
		if it.d > dist[it.node] || (it.d == dist[it.node] && it.hops > hops[it.node]) {
			continue
		}
		for _, a := range g.adj[it.node] {
			nd, nh := it.d+a.W, it.hops+1
			if nd < dist[a.To] || (nd == dist[a.To] && nh < hops[a.To]) {
				dist[a.To], hops[a.To] = nd, nh
				pq.push(distItem{node: a.To, d: nd, hops: nh})
			}
		}
	}
	return dist, hops
}

// BFS returns unweighted hop counts from src (distances under w* = 1).
func (g *Graph) BFS(src int) []int64 {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", src, g.n))
	}
	g.ensureAdj()
	d := make([]int64, g.n)
	for i := range d {
		d[i] = Inf
	}
	d[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if d[a.To] == Inf {
				d[a.To] = d[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return d
}

// BoundedHopDist returns the l-hop distances d^l_{G,w}(src, v): the least
// length over all paths from src using at most l edges (§3.1). It runs l
// rounds of Bellman-Ford relaxation in O(l*m) time.
func (g *Graph) BoundedHopDist(src int, l int) []int64 {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: BoundedHopDist source %d out of range [0,%d)", src, g.n))
	}
	if l < 0 {
		panic(fmt.Sprintf("graph: negative hop bound %d", l))
	}
	cur := make([]int64, g.n)
	for i := range cur {
		cur[i] = Inf
	}
	cur[src] = 0
	next := make([]int64, g.n)
	for round := 0; round < l; round++ {
		copy(next, cur)
		changed := false
		for _, e := range g.edges {
			if cur[e.U] != Inf && cur[e.U]+e.W < next[e.V] {
				next[e.V] = cur[e.U] + e.W
				changed = true
			}
			if cur[e.V] != Inf && cur[e.V]+e.W < next[e.U] {
				next[e.U] = cur[e.V] + e.W
				changed = true
			}
		}
		cur, next = next, cur
		if !changed {
			break
		}
	}
	return cur
}

// BoundedDistanceSSSP returns, for every node v, d_{G,w}(src, v) if it is at
// most L, and Inf otherwise. This is the centralized reference for
// Algorithm 2 of the paper's Appendix A.
func (g *Graph) BoundedDistanceSSSP(src int, limit int64) []int64 {
	d := g.Dijkstra(src)
	for i, v := range d {
		if v > limit {
			d[i] = Inf
		}
	}
	return d
}

// APSP returns the full distance matrix via n Dijkstra runs sharing one
// DistWorkspace.
func (g *Graph) APSP() [][]int64 {
	out := make([][]int64, g.n)
	ws := NewDistWorkspace(g)
	for s := 0; s < g.n; s++ {
		out[s] = ws.DijkstraInto(nil, s)
	}
	return out
}
