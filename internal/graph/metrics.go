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
	d, _ := g.Extremes()
	return d
}

// Radius returns R_{G,w} = min_u e_{G,w}(u).
func (g *Graph) Radius() int64 {
	_, r := g.Extremes()
	return r
}

// Extremes returns the weighted diameter D_{G,w} and radius R_{G,w}
// together: exact, (0, 0) on at most one vertex and (Inf, Inf) on a
// disconnected graph. See boundingExtremes for how it avoids most of
// the n Dijkstra runs Eccentricities makes.
func (g *Graph) Extremes() (diam, radius int64) {
	if g.n <= 1 {
		return 0, 0
	}
	return boundingExtremes(g.n, wantDiameter|wantRadius, NewDistWorkspace(g).DijkstraInto)
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
// It is exact, and Inf on a disconnected graph; see boundingExtremes for
// how it avoids most of the n BFS runs.
func (g *Graph) UnweightedDiameter() int64 {
	if g.n <= 1 {
		return 0
	}
	d, _ := boundingExtremes(g.n, wantDiameter, NewDistWorkspace(g).BFSInto)
	return d
}

// UnweightedRadius returns the radius under w* = 1.
func (g *Graph) UnweightedRadius() int64 {
	if g.n <= 1 {
		return 0
	}
	_, r := boundingExtremes(g.n, wantRadius, NewDistWorkspace(g).BFSInto)
	return r
}

// The extremes a boundingExtremes sweep settles before it stops.
const (
	wantDiameter = 1 << iota
	wantRadius
)

// boundingExtremes computes the exact diameter max_v e(v) and radius
// min_v e(v) of a graph on n ≥ 2 vertices from the single-source runs
// sweep(dst, src) — BFS or Dijkstra — by eccentricity bounding (Takes &
// Kosters, "Determining the diameter of small world networks", CIKM
// 2011). A run from v with eccentricity e gives every vertex w at
// distance d the bounds max(d, e−d) ≤ e(w) ≤ e+d, which hold in any
// metric. Sources alternate between the unresolved vertex (lo < hi)
// with the largest upper bound and the one with the smallest lower
// bound, lowest index on ties. The sweep stops once every extreme in
// want is settled: the diameter when max lo = max hi, the radius when
// min lo = min hi. An extreme not in want comes back as a bound only.
// A run fixes its source's bounds to lo = hi = e, so the sweep makes
// progress every run and its worst case is n runs. The first run to
// leave a vertex unreached returns (Inf, Inf).
func boundingExtremes(n, want int, sweep func(dst []int64, src int) []int64) (diam, radius int64) {
	lo := make([]int64, 2*n)
	lo, hi := lo[:n], lo[n:]
	for w := range hi {
		hi[w] = Inf
	}
	var d []int64
	for pickHi := true; ; pickHi = !pickHi {
		maxLo, maxHi, minLo, minHi := int64(0), int64(0), Inf, Inf
		vHi, vLo := -1, -1
		for w, h := range hi {
			l := lo[w]
			maxLo, maxHi = max(maxLo, l), max(maxHi, h)
			minLo, minHi = min(minLo, l), min(minHi, h)
			if l < h {
				if vHi < 0 || h > hi[vHi] {
					vHi = w
				}
				if vLo < 0 || l < lo[vLo] {
					vLo = w
				}
			}
		}
		if (want&wantDiameter == 0 || maxLo == maxHi) && (want&wantRadius == 0 || minLo == minHi) {
			return maxLo, minHi
		}
		// Some extreme is unsettled, so some vertex is unresolved and
		// both picks exist.
		v := vHi
		if !pickHi {
			v = vLo
		}
		d = sweep(d, v)
		e := maxOf(d)
		if e >= Inf {
			return Inf, Inf
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
