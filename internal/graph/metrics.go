package graph

// This file computes the distance metrics studied by the paper: weighted and
// unweighted eccentricity, diameter D_{G,w}, radius R_{G,w}, the unweighted
// diameter D_G of the underlying network, and the hop diameter H_{G,w}
// (§2.1, §3.1). All functions return Inf-based values on disconnected
// graphs: the diameter of a disconnected graph is Inf.

// Eccentricity returns e_{G,w}(u) = max_v d_{G,w}(u, v).
func (g *Graph) Eccentricity(u int) int64 {
	return maxOf(g.Dijkstra(u))
}

// Eccentricities returns e_{G,w}(u) for every node u. The n Dijkstra
// runs share one DistWorkspace, so the sweep allocates two arrays
// total instead of per source.
func (g *Graph) Eccentricities() []int64 {
	out := make([]int64, g.n)
	ws := NewDistWorkspace(g)
	var d []int64
	for u := 0; u < g.n; u++ {
		d = ws.DijkstraInto(d, u)
		out[u] = maxOf(d)
	}
	return out
}

// Diameter returns D_{G,w} = max_u e_{G,w}(u).
func (g *Graph) Diameter() int64 {
	return maxOf(g.Eccentricities())
}

// Radius returns R_{G,w} = min_u e_{G,w}(u).
func (g *Graph) Radius() int64 {
	return minOf(g.Eccentricities())
}

// Center returns a node with minimum eccentricity and that eccentricity.
func (g *Graph) Center() (node int, ecc int64) {
	eccs := g.Eccentricities()
	node, ecc = 0, Inf
	for u, e := range eccs {
		if e < ecc {
			node, ecc = u, e
		}
	}
	return node, ecc
}

// Peripheral returns a node with maximum eccentricity and that eccentricity.
func (g *Graph) Peripheral() (node int, ecc int64) {
	eccs := g.Eccentricities()
	node, ecc = 0, -1
	for u, e := range eccs {
		if e > ecc {
			node, ecc = u, e
		}
	}
	return node, ecc
}

// UnweightedEccentricity returns the eccentricity of u under w* = 1.
func (g *Graph) UnweightedEccentricity(u int) int64 {
	return maxOf(g.BFS(u))
}

// UnweightedDiameter returns D_G, the hop diameter of the underlying
// unweighted network. This is the parameter D in the paper's round bounds.
// It is exact, and Inf on a disconnected graph; see boundingDiameter for
// how it avoids most of the n BFS runs.
func (g *Graph) UnweightedDiameter() int64 {
	if g.n <= 1 {
		return 0
	}
	return boundingDiameter(g.n, NewDistWorkspace(g).BFSInto)
}

// boundingDiameter computes the exact diameter max_v e(v) of a graph on
// n ≥ 2 vertices from the BFS runs bfs(dst, src) by eccentricity
// bounding (Takes & Kosters, "Determining the diameter of small world
// networks", CIKM 2011). A BFS from v with eccentricity e gives every
// vertex w at distance d the bounds max(d, e−d) ≤ e(w) ≤ e+d. Sources
// alternate between the vertex with the largest upper bound and the
// unresolved vertex with the smallest lower bound, lowest index on ties,
// and the sweep stops once max lo = max hi: that value is then the
// diameter. A BFS fixes its source's bounds to lo = hi = e, so the
// sweep makes progress every run and its worst case is n runs. The first
// BFS to leave a vertex unreached returns Inf.
func boundingDiameter(n int, bfs func(dst []int64, src int) []int64) int64 {
	lo := make([]int64, 2*n)
	lo, hi := lo[:n], lo[n:]
	for w := range hi {
		hi[w] = Inf
	}
	var d []int64
	for pickHi := true; ; pickHi = !pickHi {
		var maxLo int64
		v, vHi := 0, int64(-1)
		for w, h := range hi {
			if lo[w] > maxLo {
				maxLo = lo[w]
			}
			if h > vHi {
				v, vHi = w, h
			}
		}
		if maxLo == vHi {
			return maxLo
		}
		if !pickHi {
			// The smallest lower bound among unresolved vertices; the
			// largest-hi vertex is unresolved, so one exists.
			v = -1
			for w := range lo {
				if lo[w] < hi[w] && (v < 0 || lo[w] < lo[v]) {
					v = w
				}
			}
		}
		d = bfs(d, v)
		e := maxOf(d)
		if e >= Inf {
			return Inf
		}
		for w, dw := range d {
			if l := max(dw, e-dw); l > lo[w] {
				lo[w] = l
			}
			if h := e + dw; h < hi[w] {
				hi[w] = h
			}
		}
	}
}

// UnweightedRadius returns the radius under w* = 1.
func (g *Graph) UnweightedRadius() int64 {
	r := Inf
	ws := NewDistWorkspace(g)
	var bfs []int64
	for u := 0; u < g.n; u++ {
		bfs = ws.BFSInto(bfs, u)
		if e := maxOf(bfs); e < r {
			r = e
		}
	}
	return r
}

// HopDiameter returns H_{G,w}: the maximum over node pairs of the minimum
// edge count among minimum-weight paths (§3.1).
func (g *Graph) HopDiameter() int64 {
	var h int64
	ws := NewDistWorkspace(g)
	var d, hops []int64
	for u := 0; u < g.n; u++ {
		d, hops = ws.DijkstraHopsInto(d, hops, u)
		if m := maxOf(hops); m > h {
			h = m
		}
	}
	return h
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []int64) int64 {
	m := Inf
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}
