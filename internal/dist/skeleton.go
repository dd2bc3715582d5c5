// Skeleton-graph machinery of Lemmas 3.2/3.3: from a sampled vertex set
// S_i, build the overlay the distributed algorithm would assemble
// (rounded ℓ-hop distances between skeleton nodes, sparsified to the k
// shortest overlay edges per node, Algorithm 4) and answer approximate
// eccentricity queries ẽ_{G,w,i}(s) through it (Algorithm 5 + the local
// combine of Lemma 3.5).
//
// The centralized build computes exactly what the executable procedures
// (RunAlg1/RunAlg3) converge to; the round cost of assembling it is
// charged by internal/core's cost model, whose schedules the parity
// tests check against the executable procedures. The heavy lifting — the
// per-source rounded bounded-hop sweeps — runs on the frontier kernel of
// graph.DistWorkspace through the row table in kernel.go, and all
// bookkeeping is index-keyed flat slices (no maps on the hot path).

package dist

import (
	"cmp"
	"slices"

	"qcongest/internal/graph"
)

// Skeleton is the Lemma 3.2 overlay for one sampled set S_i, ready to
// answer ẽ_{G,w,i}(·) queries. All distance values are integer
// numerators over the common denominator DenOut; a numerator of
// graph.Inf marks a pair unreachable within the hop budget.
//
// ApproxEccentricity is safe for concurrent use: the lazy
// row/eccentricity memo is guarded by the row table's mutex, so a cached
// skeleton can serve concurrent requests (see internal/cache's sketch
// cache).
type Skeleton struct {
	// G is the underlying network.
	G *graph.Graph
	// Sources is the skeleton node set S_i, deduplicated preserving
	// first occurrences (Lemma 3.2's S_i is a set; duplicate entries in
	// the input are collapsed).
	Sources []int
	// L is the hop budget ℓ of the bounded-hop distance computations.
	L int
	// K is the Algorithm 4 sparsification parameter: each skeleton node
	// keeps its k shortest overlay edges.
	K int
	// Eps is the rounding parameter ε = 1/T.
	Eps Eps
	// DenOut is the common denominator 2·T·ℓ of every numerator this
	// skeleton returns.
	DenOut int64

	tab  *RowTable // the rows d̃^ℓ(s, ·), read in place
	bufs *skelBuffers
}

// BuildSkeleton computes the Lemma 3.2 skeleton of the set s in g with
// hop budget l, sparsification parameter k, and rounding parameter eps.
// Degenerate parameters are clamped to 1 so every input is runnable.
//
// For each skeleton node the (1+ε)-rounded ℓ-hop distances to all of V
// are computed (O(|S_i|·n) numerators), then the overlay is assembled
// and sparsified to the k shortest edges per node, and overlay
// distances between skeleton nodes are taken with the Algorithm 5 hop
// bound ⌈4b/k⌉. The skeleton is built over a private NewRowTable, so it
// computes exactly its own sources' rows (plus any vertex it is queried
// at). Callers that build many skeletons over one (g, l, eps) share a
// table instead. The build runs on the calling goroutine; independent
// builds parallelize one level up.
func BuildSkeleton(g *graph.Graph, s []int, l, k int, eps Eps) *Skeleton {
	return NewRowTable(g, l, eps).Skeleton(s, k)
}

// BuildSkeletonOpts is empty. It survives only so that
// BuildSkeletonWith keeps compiling for the benchmark module's callers.
type BuildSkeletonOpts struct{}

// BuildSkeletonWith forwards to BuildSkeleton. Its only reason to exist
// is the benchmark module, which still calls it with an empty
// BuildSkeletonOpts.
func BuildSkeletonWith(g *graph.Graph, s []int, l, k int, eps Eps, _ BuildSkeletonOpts) *Skeleton {
	return BuildSkeleton(g, s, l, k, eps)
}

// Skeleton assembles the Lemma 3.2 skeleton of the set s over the
// table's rows, with sparsification parameter k (clamped to 1). It does
// only the per-set work: deduplicate s, fill any of its rows the table
// lacks, and build the Algorithm 4/5 overlay. Release it when its
// queries are done; the table stays usable.
func (t *RowTable) Skeleton(s []int, k int) *Skeleton {
	sk := &Skeleton{}
	t.assemble(sk, s, k)
	return sk
}

// assemble builds the skeleton of s into sk. It is split from Skeleton
// so that Skeleton inlines and a caller that does not keep the
// skeleton can hold its header on the stack.
func (t *RowTable) assemble(sk *Skeleton, s []int, k int) {
	if k < 1 {
		k = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	*sk = Skeleton{G: t.g, L: t.l, K: k, Eps: t.eps, DenOut: t.denOut, tab: t}
	n := t.g.N()
	bufs := getSkelBuffers()
	sk.bufs = bufs
	bufs.srcIdx = growInt32(bufs.srcIdx, n)
	sk.Sources = dedupSources(s, bufs.srcIdx)
	bufs.ecc = growInt64(bufs.ecc, n)
	for v := range bufs.ecc {
		bufs.ecc[v] = -1
	}
	bufs.srcRows = growRows(bufs.srcRows, len(sk.Sources))
	for j, v := range sk.Sources {
		bufs.srcRows[j] = t.row(v)
	}
	sk.buildOverlay()
}

// buildOverlay assembles the Algorithm 4 overlay: complete rounded
// distances between skeleton nodes, sparsified to the union of each
// node's k shortest edges, then closed under the Algorithm 5 hop bound
// ⌈4b/k⌉ by Bellman-Ford on the overlay. All scratch comes from the
// pooled arena.
func (sk *Skeleton) buildOverlay() {
	bufs := sk.bufs
	b := len(sk.Sources)
	bufs.full = growInt64(bufs.full, b*b)
	full := bufs.full
	for j, row := range bufs.srcRows {
		for t, u := range sk.Sources {
			full[j*b+t] = row[u]
		}
	}

	// Keep edge (j,t) if it is among the k shortest of either endpoint.
	bufs.keep = growBool(bufs.keep, b*b)
	keep := bufs.keep
	for i := range keep {
		keep[i] = false
	}
	bufs.order = growInts(bufs.order, b)
	order := bufs.order
	for j := 0; j < b; j++ {
		for t := range order {
			order[t] = t
		}
		fr := full[j*b : (j+1)*b]
		slices.SortFunc(order, func(a, c int) int { return cmp.Compare(fr[a], fr[c]) })
		kept := 0
		for _, t := range order {
			if t == j || fr[t] == graph.Inf {
				continue
			}
			keep[j*b+t] = true
			keep[t*b+j] = true
			kept++
			if kept >= sk.K {
				break
			}
		}
	}

	// Overlay hop bound ℓ' = ⌈4b/k⌉ (at least 1), per Algorithm 5.
	lp := (4*b + sk.K - 1) / sk.K
	if lp < 1 {
		lp = 1
	}
	bufs.overlay = growInt64(bufs.overlay, b*b)
	bufs.cur = growInt64(bufs.cur, b)
	bufs.next = growInt64(bufs.next, b)
	cur, next := bufs.cur, bufs.next
	for j := 0; j < b; j++ {
		for t := range cur {
			cur[t] = graph.Inf
		}
		cur[j] = 0
		for hop := 0; hop < lp; hop++ {
			copy(next, cur)
			changed := false
			for u := 0; u < b; u++ {
				if cur[u] == graph.Inf {
					continue
				}
				for t := 0; t < b; t++ {
					if !keep[u*b+t] {
						continue
					}
					if d := cur[u] + full[u*b+t]; d < next[t] {
						next[t] = d
						changed = true
					}
				}
			}
			cur, next = next, cur
			if !changed {
				break
			}
		}
		copy(bufs.overlay[j*b:(j+1)*b], cur)
	}
	bufs.cur, bufs.next = cur, next
}

// ApproxEccentricity returns the numerator of ẽ_{G,w,i}(v) over DenOut:
// the Lemma 3.3 approximate eccentricity of v through the skeleton,
// max_u min_t [ d̃_H(v, t) + d̃^ℓ(t, u) ] with t ranging over the
// skeleton nodes and v itself. It never undershoots the true
// eccentricity e_{G,w}(v); whenever every min-weight path from v has at
// most ℓ hops it is at most (1+ε)·e_{G,w}(v)·DenOut. A value of
// graph.Inf marks some vertex unreachable within the hop budget.
func (sk *Skeleton) ApproxEccentricity(v int) int64 {
	sk.tab.mu.Lock()
	defer sk.tab.mu.Unlock()
	bufs := sk.bufs
	if e := bufs.ecc[v]; e >= 0 {
		return e
	}
	rowV := sk.tab.row(v)
	b := len(sk.Sources)

	// entry[t]: best known distance from v to skeleton node t — directly
	// (one rounded ℓ-hop leg) or through the sparsified overlay.
	bufs.entry = growInt64(bufs.entry, b)
	entry := bufs.entry
	if j := bufs.srcIdx[v]; j >= 0 {
		copy(entry, bufs.overlay[int(j)*b:(int(j)+1)*b])
		for t, u := range sk.Sources {
			if d := rowV[u]; d < entry[t] {
				entry[t] = d
			}
		}
	} else {
		for t, u := range sk.Sources {
			entry[t] = rowV[u]
		}
		for j, u := range sk.Sources {
			if rowV[u] == graph.Inf {
				continue
			}
			ov := bufs.overlay[j*b : (j+1)*b]
			for t := 0; t < b; t++ {
				if ov[t] == graph.Inf {
					continue
				}
				if d := rowV[u] + ov[t]; d < entry[t] {
					entry[t] = d
				}
			}
		}
	}

	// best[u] = min(rowV[u], min_t entry[t] + d̃^ℓ(t, u)), streamed one
	// source row at a time. Inf = 2^60 keeps entry[t] + Inf in range and
	// never below best[u] <= rowV[u] <= Inf, so an Inf row entry needs
	// no test and the max is at most Inf. The row fills are done, so
	// best borrows the table's scale scratch.
	tab := sk.tab
	tab.scale = growInt64(tab.scale, len(rowV))
	best := tab.scale
	copy(best, rowV)
	for t, rt := range bufs.srcRows {
		et := entry[t]
		if et == graph.Inf {
			continue
		}
		for u, d := range rt {
			if d += et; d < best[u] {
				best[u] = d
			}
		}
	}
	var ecc int64
	for _, d := range best {
		if d > ecc {
			ecc = d
		}
	}
	bufs.ecc[v] = ecc
	return ecc
}
