// The fixed round schedules of the Lemma 3.5 decomposition, one per
// procedure: Algorithm 1 (bounded-hop SSSP), Algorithm 3 (its
// multi-source stagger), Algorithm 4 (the overlay embedding) and
// Algorithm 5 (SSSP on the overlay). These are the single source of
// truth: internal/core's cost model (core/cost.go) composes them into
// the T0/T1/T2 schedules it charges inside the quantum search, and the
// parity tests in core check the executable RunAlg1/RunAlg3 never
// exceed them.

package dist

// Alg1Schedule is the fixed Algorithm 1 schedule: (i_max+1) scales of
// (1+2T)ℓ + 2 rounds each.
func Alg1Schedule(n int, w int64, l int, eps Eps) int64 {
	return int64(IMax(n, w, eps)+1) * ((1+2*eps.T)*int64(l) + 2)
}

// Alg3Schedule is the fixed Algorithm 3 schedule: the delay broadcast
// (D + b), then maxDelay + alg1 + 1 logical rounds stretched into C
// subrounds each.
func Alg3Schedule(n int, w int64, l int, eps Eps, b int, d int64) int64 {
	c := int64(SubroundsPerLogical(n))
	maxDelay := int64(b)*c + 1
	return d + int64(b) + (maxDelay+Alg1Schedule(n, w, l, eps)+1)*c
}

// EmbedSchedule is the Algorithm 4 schedule: every skeleton node
// broadcasts its k shortest overlay edges, pipelined in O(D + b·k).
func EmbedSchedule(d int64, b, k int) int64 {
	return d + int64(b*k) + 1
}

// OverlaySchedule is the Algorithm 5 schedule: Algorithm 1 on the
// overlay (b+1 nodes, weights up to n·W, hop budget ⌈4b/k⌉), each
// logical round a global O(D) broadcast, plus the O(b·C) volume term.
func OverlaySchedule(n int, w int64, b, k int, eps Eps, d int64) int64 {
	lp := (4*b + k - 1) / k
	if lp < 1 {
		lp = 1
	}
	return Alg1Schedule(b+1, int64(n)*w, lp, eps)*(d+1) + int64(b)*int64(SubroundsPerLogical(n))
}
