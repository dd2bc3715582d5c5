// The multi-source rounded-distance kernel behind every skeleton: a row
// table that owns the distance workspace (graph.DistWorkspace + flat
// scratch) and the shared per-arc numerator overlay that turns the
// per-scale weight rounding ⌈w·2Tℓ/2^i⌉ into an add-and-shift.
//
// Determinism contract: every row is a pure function of (G, source, ℓ,
// ε), not of the set S_i whose skeleton asks for it. That is what lets
// one table serve every skeleton built over the same (G, ℓ, ε).

package dist

import (
	"sync"

	"qcongest/internal/graph"
)

// RowTable holds the (1+ε)-rounded ℓ-hop numerator rows d̃^ℓ(s, ·) of
// one network for one hop budget ℓ and rounding parameter ε, keyed by
// source vertex and computed on first use. Every skeleton built from
// the table (Skeleton) reads its rows in place, so a source shared by
// many sampled sets has its row computed once. This is the centralized
// simulation sharing work across sets; the distributed algorithm still
// assembles one skeleton per set, and the charged schedules count it so.
//
// The table holds (distinct rows touched) × n numerators: at most 8n²
// bytes, never preallocated. The table and the skeletons built from it
// are safe for concurrent use: one mutex guards the lazy row fill, the
// shared scratch, and every skeleton's query memo.
type RowTable struct {
	g      *graph.Graph
	l      int   // hop budget ℓ
	eps    Eps   // rounding parameter ε = 1/T
	denOut int64 // common denominator 2·T·ℓ of every numerator
	imax   int   // hoisted scale count: rounding scales run 0..imax
	cap64  int64 // per-scale prune bound (1+2T)·ℓ

	mu    sync.Mutex
	ws    *graph.DistWorkspace // CSR adjacency + frontier scratch
	wden  []int64              // per-arc w·2Tℓ numerators (scale i divides by 2^i)
	scale []int64              // a row fill's per-scale scratch, then an ẽ query's minima
	rowOf []int32              // vertex -> index into rows, -1 until first use
	rows  [][]int64            // d̃^ℓ numerator rows in fill order
}

// NewRowTable returns an empty row table for g with hop budget l and
// rounding parameter eps. Degenerate parameters are clamped to 1. The
// table and its rows are garbage once the caller drops it and every
// skeleton built from it.
func NewRowTable(g *graph.Graph, l int, eps Eps) *RowTable {
	if l < 1 {
		l = 1
	}
	if eps.T < 1 {
		eps.T = 1
	}
	n := g.N()
	t := &RowTable{g: g, l: l, eps: eps, denOut: eps.Den(l), ws: graph.NewDistWorkspace(g)}
	t.cap64 = (1 + 2*eps.T) * int64(l) // scale-i values above it belong to larger scales
	w := t.ws.MaxWeight()
	if w < 1 {
		w = 1
	}
	t.imax = IMax(n, w, eps)

	// Per-arc numerators w·2Tℓ, shared read-only by every source row:
	// scale i's rounded weight ⌈w·2Tℓ/2^i⌉ becomes an add-and-shift.
	t.wden = t.ws.ArcWeights(nil)
	for a := range t.wden {
		t.wden[a] *= t.denOut
	}
	t.rowOf = make([]int32, n)
	for v := range t.rowOf {
		t.rowOf[v] = -1
	}
	return t
}

// row returns d̃^ℓ(v, ·), computing it on first use. Callers must hold
// t.mu. The returned slice stays valid, and is never written again, for
// the table's lifetime.
func (t *RowTable) row(v int) []int64 {
	if j := t.rowOf[v]; j >= 0 {
		return t.rows[j]
	}
	r := make([]int64, t.g.N())
	t.roundedRowInto(r, v)
	t.rowOf[v] = int32(len(t.rows))
	t.rows = append(t.rows, r)
	return r
}

// skelBuffers is the pooled per-set arena of one skeleton: everything
// that depends on the set S_i, none of which depends on the rows'
// provenance. Recycled through skelPool by (*Skeleton).Release.
type skelBuffers struct {
	srcIdx  []int32   // vertex -> index in Sources, -1 otherwise
	srcRows [][]int64 // table row of each source, read in place
	ecc     []int64   // memoized ẽ numerators, -1 if unset
	overlay []int64   // flat b×b overlay distances

	entry []int64 // ApproxEccentricity's per-skeleton-node entry costs
	full  []int64 // overlay build: flat b×b complete distances
	keep  []bool  // overlay build: flat b×b sparsification mask
	order []int   // overlay build: per-node sort order
	cur   []int64 // overlay build: Bellman-Ford front
	next  []int64
}

var skelPool sync.Pool

func getSkelBuffers() *skelBuffers {
	if b, _ := skelPool.Get().(*skelBuffers); b != nil {
		return b
	}
	return &skelBuffers{}
}

// Release returns the skeleton's per-set arena to the package pool; the
// row table stays usable. Call it only as the exclusive owner, when no
// queries against the skeleton can follow (internal/core releases each
// skeleton of its row table once the set's inner search is done; the
// sketch cache of internal/cache must NOT release entries it may still
// be serving). After Release every query method of the skeleton panics.
func (sk *Skeleton) Release() {
	// Taking the query mutex closes the window where a misused Release
	// races an in-flight query: the arena is recycled only after any
	// current query finishes, so the race fails loudly (nil bufs) in the
	// racing caller instead of corrupting a later build.
	t := sk.tab
	t.mu.Lock()
	defer t.mu.Unlock()
	b := sk.bufs
	if b == nil {
		return
	}
	sk.bufs = nil
	// Drop the row references so the pool does not keep a table's rows
	// alive after its owner drops it.
	for j := range b.srcRows {
		b.srcRows[j] = nil
	}
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

// roundedRowInto computes the numerators of the (1+ε)-approximate
// ℓ-hop distances d̃^ℓ(src, ·) over denominator 2Tℓ into row: the min
// over rounding scales i = 0..i_max of the frontier-based ℓ-hop
// Bellman-Ford distance under weights ⌈w·2Tℓ/2^i⌉, rescaled by 2^i.
// Rounding up makes every value the length of a real path (never an
// undershoot); for a pair at true distance d with a min-weight path of
// at most ℓ hops, the scale with 2^(i-1) < d <= 2^i yields a value of
// at most (1+ε)·d. Scale-i values above (1+2T)ℓ belong to larger
// scales and are pruned inside the kernel, which drains small-scale
// frontiers after a few hops. The sweeps run on the table's workspace
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
func (t *RowTable) roundedRowInto(row []int64, src int) {
	for v := range row {
		row[v] = graph.Inf
	}
	settled := 0
	for i := 0; i <= t.imax && settled < len(row); i++ {
		t.scale = t.ws.BoundedHopInto(t.scale, src, t.l, t.wden, uint(i), t.cap64)
		for v, bh := range t.scale {
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

func growRows(s [][]int64, n int) [][]int64 {
	if cap(s) < n {
		return make([][]int64, n)
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
