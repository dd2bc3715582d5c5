package graph

// Bitset frontier primitives for bottom-up BFS levels: a frontier over
// n vertices packed 64 per word, so a bottom-up level tests membership
// with a shift and a mask instead of chasing a worklist, and the flip
// back to top-down enumerates members with trailing-zero scans. All storage comes from
// the owning DistWorkspace's scratch arenas — these helpers never
// allocate once the workspace is warm.

import "math/bits"

// frontierBits is a fixed-capacity bitset over vertex ids. Word i holds
// vertices 64i..64i+63; the tail word's high bits (when n is not a
// multiple of 64) are kept zero by construction — set is only ever
// called with in-range vertices, and zero clears whole words.
type frontierBits []uint64

// bitWords returns the word count covering n vertices.
func bitWords(n int) int { return (n + 63) / 64 }

// growBits returns s with capacity for n vertices. Contents are
// unspecified (callers zero at point of use): growth must not force an
// O(n) clear on the BFS calls that never go bottom-up.
func growBits(s frontierBits, n int) frontierBits {
	w := bitWords(n)
	if cap(s) < w {
		return make(frontierBits, w)
	}
	return s[:w]
}

// zero clears every word.
func (b frontierBits) zero() {
	for i := range b {
		b[i] = 0
	}
}

// set marks vertex v.
func (b frontierBits) set(v int32) { b[v>>6] |= 1 << (uint(v) & 63) }

// test reports whether vertex v is marked.
func (b frontierBits) test(v int32) bool { return b[v>>6]&(1<<(uint(v)&63)) != 0 }

// appendMembers appends the marked vertices to dst in ascending order
// and returns it — the bottom-up → top-down frontier transition. The caller
// guarantees dst has the capacity (the workspace frontier slices are
// sized to n), so the append never allocates on a warm workspace.
func (b frontierBits) appendMembers(dst []int32) []int32 {
	for i, w := range b {
		base := int32(i << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// fillFrom zeroes b and marks every vertex in src — the top-down →
// bottom-up frontier transition.
func (b frontierBits) fillFrom(src []int32) {
	b.zero()
	for _, v := range src {
		b.set(v)
	}
}
