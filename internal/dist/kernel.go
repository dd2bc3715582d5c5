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

	mu   sync.Mutex
	bufs *tableBuffers
}

// tableBuffers is a row table's arena: the distance workspace (CSR
// adjacency + frontier scratch), the per-arc numerator overlay, and the
// rows. A table built for a standalone BuildSkeleton recycles its arena
// through tablePool when the skeleton is released, rows included, so a
// steady-state build allocates almost nothing.
type tableBuffers struct {
	ws    *graph.DistWorkspace
	wden  []int64   // per-arc w·2Tℓ numerators (scale i divides by 2^i)
	scale []int64   // a row fill's per-scale scratch, then an ẽ query's minima
	rowOf []int32   // vertex -> index into rows, -1 until first use
	rows  [][]int64 // d̃^ℓ numerator rows in fill order; a released arena's rows wait past len for reuse
}

var tablePool sync.Pool

// getTableBuffers returns a pooled arena bound to g. Rows of its
// previous use that are long enough for g stay parked past len(rows)
// for the next fills.
func getTableBuffers(g *graph.Graph) *tableBuffers {
	b, _ := tablePool.Get().(*tableBuffers)
	if b == nil {
		return &tableBuffers{ws: graph.NewDistWorkspace(g)}
	}
	b.ws.Reset(g)
	n := g.N()
	all := b.rows[:cap(b.rows)]
	kept := 0
	for i, r := range all {
		all[i] = nil
		if cap(r) >= n {
			all[kept] = r
			kept++
		}
	}
	return b
}

// NewRowTable returns an empty row table for g with hop budget l and
// rounding parameter eps. Degenerate parameters are clamped to 1. The
// table is not pooled: it and its rows are garbage once the caller drops
// it and every skeleton built from it.
func NewRowTable(g *graph.Graph, l int, eps Eps) *RowTable {
	t := &RowTable{}
	t.init(g, l, eps, &tableBuffers{ws: graph.NewDistWorkspace(g)})
	return t
}

// init binds t to g over the arena bufs: the per-arc numerators, the
// scale count and the prune bound, and an empty row index.
func (t *RowTable) init(g *graph.Graph, l int, eps Eps, bufs *tableBuffers) {
	if l < 1 {
		l = 1
	}
	if eps.T < 1 {
		eps.T = 1
	}
	n := g.N()
	t.g, t.l, t.eps, t.denOut = g, l, eps, eps.Den(l)
	t.cap64 = (1 + 2*eps.T) * int64(l) // scale-i values above it belong to larger scales
	w := bufs.ws.MaxWeight()
	if w < 1 {
		w = 1
	}
	t.imax = IMax(n, w, eps)
	t.bufs = bufs

	// Per-arc numerators w·2Tℓ, shared read-only by every source row:
	// scale i's rounded weight ⌈w·2Tℓ/2^i⌉ becomes an add-and-shift.
	bufs.wden = bufs.ws.ArcWeights(bufs.wden)
	for a := range bufs.wden {
		bufs.wden[a] *= t.denOut
	}
	bufs.rowOf = growInt32(bufs.rowOf, n)
	for v := range bufs.rowOf {
		bufs.rowOf[v] = -1
	}
	bufs.rows = bufs.rows[:0]
}

// row returns d̃^ℓ(v, ·), computing it on first use. Callers must hold
// t.mu. The returned slice stays valid, and is never written again, for
// the table's lifetime.
func (t *RowTable) row(v int) []int64 {
	b := t.bufs
	if j := b.rowOf[v]; j >= 0 {
		return b.rows[j]
	}
	n := t.g.N()
	j := len(b.rows)
	var r []int64
	if j < cap(b.rows) {
		r = b.rows[:j+1][j] // a released arena's row, or nil
	}
	if r == nil {
		r = make([]int64, n)
	}
	r = r[:n]
	t.roundedRowInto(r, v)
	b.rowOf[v] = int32(j)
	b.rows = append(b.rows, r)
	return r
}

// release returns the table's arena, rows included, to tablePool. Only
// the exclusive owner may call it, with t.mu held.
func (t *RowTable) release() {
	b := t.bufs
	t.bufs = nil
	b.rows = b.rows[:0]
	tablePool.Put(b)
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

// Release returns the skeleton's per-set arena to the package pool and,
// for a skeleton from BuildSkeleton, its private row table's arena too.
// Call it only as the exclusive owner, when no queries against the
// skeleton can follow (internal/core releases each skeleton of its row
// table once the set's inner search is done; the sketch cache of
// internal/server must NOT release entries it may still be serving).
// After Release every query method of the skeleton panics.
func (sk *Skeleton) Release() {
	// Taking the query mutex closes the window where a misused Release
	// races an in-flight query: the arenas are recycled only after any
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
	// Drop the row references so the pool does not keep a shared
	// table's rows alive after its owner drops it.
	for j := range b.srcRows {
		b.srcRows[j] = nil
	}
	skelPool.Put(b)
	if sk.ownsTable {
		t.release()
	}
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
func (t *RowTable) roundedRowInto(row []int64, src int) {
	b := t.bufs
	for v := range row {
		row[v] = graph.Inf
	}
	settled := 0
	for i := 0; i <= t.imax && settled < len(row); i++ {
		b.scale = b.ws.BoundedHopInto(b.scale, src, t.l, b.wden, uint(i), t.cap64)
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
