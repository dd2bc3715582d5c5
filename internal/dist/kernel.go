// The multi-source rounded-distance kernel behind BuildSkeleton: a
// pooled build arena (graph.DistWorkspace + flat scratch) and the shared
// per-arc numerator overlay that turns the per-scale weight rounding
// ⌈w·2Tℓ/2^i⌉ into an add-and-shift.
//
// Determinism contract: every row j of the skeleton is a pure function
// of (G, Sources[j], ℓ, ε), computed into its own pre-assigned slot
// rows[j·n : (j+1)·n].

package dist

import (
	"sync"

	"qcongest/internal/graph"
)

// skelBuffers is the pooled build arena of one skeleton: the distance
// workspace (CSR adjacency + frontier scratch), the shared per-arc
// numerator overlay, and every flat array the skeleton owns. Recycled
// through skelPool by (*Skeleton).Release so a steady-state build
// allocates almost nothing.
type skelBuffers struct {
	ws   *graph.DistWorkspace
	wden []int64 // per-arc w·2Tℓ numerators (scale i divides by 2^i)

	rows    []int64 // flat row-major d̃^ℓ numerators (b base rows + query rows)
	srcIdx  []int32 // vertex -> index in Sources, -1 otherwise
	rowOf   []int32 // vertex -> row index into rows, -1 if uncomputed
	ecc     []int64 // memoized ẽ numerators, -1 if unset
	overlay []int64 // flat b×b overlay distances

	scale []int64 // per-scale bounded-hop scratch (build + query path)
	entry []int64 // ApproxEccentricity's per-skeleton-node entry costs
	full  []int64 // overlay build: flat b×b complete distances
	keep  []bool  // overlay build: flat b×b sparsification mask
	order []int   // overlay build: per-node sort order
	cur   []int64 // overlay build: Bellman-Ford front
	next  []int64
}

var skelPool sync.Pool

func getSkelBuffers(g *graph.Graph) *skelBuffers {
	b, _ := skelPool.Get().(*skelBuffers)
	if b == nil {
		b = &skelBuffers{}
	}
	if b.ws == nil {
		b.ws = graph.NewDistWorkspace(g)
	} else {
		b.ws.Reset(g)
	}
	return b
}

// Release returns the skeleton's build arena to the package pool. Call
// it only as the exclusive owner, when no queries against the skeleton
// can follow (internal/core releases the per-evaluation skeletons it
// builds and discards; the sketch cache of internal/server must NOT
// release entries it may still be serving). After Release every query
// method of the skeleton panics.
func (sk *Skeleton) Release() {
	// Taking the query mutex closes the window where a misused Release
	// races an in-flight query: the arena is recycled only after any
	// current query finishes, so the race fails loudly (nil bufs) in the
	// racing caller instead of corrupting a later build.
	sk.mu.Lock()
	defer sk.mu.Unlock()
	b := sk.bufs
	if b == nil {
		return
	}
	sk.bufs = nil
	skelPool.Put(b)
}

// dedupSources returns s with duplicates removed, preserving first
// occurrences, and fills srcIdx (vertex -> index in the deduped order).
// The overlay previously stored one column per occurrence while idx
// kept only the first, skewing every duplicate's overlay column; the
// skeleton now operates on the deduped set only.
func dedupSources(s []int, srcIdx []int32) []int {
	for i := range srcIdx {
		srcIdx[i] = -1
	}
	out := make([]int, 0, len(s))
	for _, v := range s {
		if srcIdx[v] >= 0 {
			continue
		}
		srcIdx[v] = int32(len(out))
		out = append(out, v)
	}
	return out
}

// buildRows computes the rounded ℓ-hop numerator row of every skeleton
// source, in source order, into its slot of the flat rows array.
func (sk *Skeleton) buildRows() {
	n := sk.bufs.ws.N()
	sk.bufs.rows = growInt64(sk.bufs.rows, len(sk.Sources)*n)
	for j, v := range sk.Sources {
		sk.roundedRowInto(sk.bufs.rows[j*n:(j+1)*n], v)
	}
}

// roundedRowInto computes the numerators of the (1+ε)-approximate
// ℓ-hop distances d̃^ℓ(src, ·) over denominator 2Tℓ into row: the min
// over rounding scales i = 0..i_max of the frontier-based ℓ-hop
// Bellman-Ford distance under weights ⌈w·2Tℓ/2^i⌉, rescaled by 2^i.
// Rounding up makes every value the length of a real path (never an
// undershoot); for a pair at true distance d with a min-weight path of
// at most ℓ hops, the scale with 2^(i-1) < d <= 2^i yields a value of
// at most (1+ε)·d. Scale-i values above (1+2T)ℓ belong to larger
// scales and are pruned inside the kernel, which drains small-scale
// frontiers after a few hops. The sweeps run on the arena's workspace
// and per-scale scratch.
//
// The scale loop stops as soon as every entry of the row is finite,
// and the result is the same as running all i_max+1 scales. For one
// path P, 2^i·⌈x/2^i⌉ is the least multiple of 2^i that is at least
// x, so P's scaled value 2^i·Σ⌈w·2Tℓ/2^i⌉ never decreases as i grows.
// Let i_v be the first scale at which v's value is finite. Then that
// value is the unpruned minimum of P's scaled value over all ≤ℓ-hop
// paths P at scale i_v. A later scale's value for v comes from some
// ≤ℓ-hop path P*, and P* costs at least as much there as at scale i_v,
// which is at least v's entry. So no later scale lowers the entry, and
// once all n are settled the remaining sweeps are redundant. Vertices
// beyond ℓ hops never settle, and then every scale runs. The charged
// Algorithm 1 schedule (internal/core/cost.go) and the executable
// RunAlg1 still count all i_max+1 scales.
func (sk *Skeleton) roundedRowInto(row []int64, src int) {
	b := sk.bufs
	for v := range row {
		row[v] = graph.Inf
	}
	settled := 0
	for i := 0; i <= sk.imax && settled < len(row); i++ {
		b.scale = b.ws.BoundedHopInto(b.scale, src, sk.L, b.wden, uint(i), sk.cap64)
		for v, bh := range b.scale {
			if bh == graph.Inf {
				continue
			}
			if scaled := bh << uint(i); scaled < row[v] {
				if row[v] == graph.Inf {
					settled++
				}
				row[v] = scaled
			}
		}
	}
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// maxW returns the maximum edge weight, at least 1.
func maxW(g *graph.Graph) int64 {
	w := g.MaxWeight()
	if w < 1 {
		w = 1
	}
	return w
}
