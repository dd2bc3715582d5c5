package graph

// Contraction of unit-weight edges (Lemma 4.3). Contracting an edge merges
// its endpoints; parallel edges arising from a contraction keep only the
// minimum weight. Lemma 4.3 sandwiches the metrics of the original graph by
// those of the contracted graph: D_{G',w} <= D_{G,w} <= D_{G',w} + n, and
// the same for the radius.

// Contraction is the result of contracting all weight-1 edges of a graph.
type Contraction struct {
	// Graph is the contracted graph G'.
	Graph *Graph
	// Super maps each original node to its supernode in G'.
	Super []int
	// Members lists, for each supernode, the original nodes merged into it.
	Members [][]int
}

// ContractUnitEdges contracts every edge of weight exactly 1 and returns the
// contracted graph with the node mapping. Edges with both endpoints in the
// same supernode vanish; parallel edges keep the minimum weight.
func (g *Graph) ContractUnitEdges() *Contraction {
	// Union-find over unit edges.
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range g.edges {
		if e.W == 1 {
			union(e.U, e.V)
		}
	}

	// Renumber roots densely, preserving original node order.
	super := make([]int, g.n)
	id := make(map[int]int, g.n)
	for u := 0; u < g.n; u++ {
		r := find(u)
		s, ok := id[r]
		if !ok {
			s = len(id)
			id[r] = s
		}
		super[u] = s
	}
	members := make([][]int, len(id))
	for u := 0; u < g.n; u++ {
		members[super[u]] = append(members[super[u]], u)
	}

	// Build contracted multigraph then simplify.
	raw := New(len(id))
	for _, e := range g.edges {
		su, sv := super[e.U], super[e.V]
		if su != sv {
			raw.MustAddEdge(su, sv, e.W)
		}
	}
	return &Contraction{Graph: raw.Simplify(), Super: super, Members: members}
}

// CheckSandwich verifies Lemma 4.3 on this contraction: for the original
// graph g it checks D_{G'} <= D_G <= D_{G'} + n and R_{G'} <= R_G <= R_{G'}
// + n, returning the four metric values. It is exact and intended for tests
// and experiment harnesses on small graphs.
func (c *Contraction) CheckSandwich(original *Graph) (dOrig, dContr, rOrig, rContr int64, ok bool) {
	dOrig, rOrig = original.Extremes()
	dContr, rContr = c.Graph.Extremes()
	n := int64(original.N())
	ok = dContr <= dOrig && dOrig <= dContr+n && rContr <= rOrig && rOrig <= rContr+n
	return dOrig, dContr, rOrig, rContr, ok
}
