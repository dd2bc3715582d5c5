package core

import (
	"math"

	"qcongest/internal/dist"
)

// Cost model for the three procedures of Lemma 3.5 and the outer search of
// Theorem 1.1. The per-algorithm schedule formulas live in internal/dist
// (dist/alg.go) next to the executable procedures they describe;
// innerCosts below is the one place they are composed into T0/T1/T2, and
// integration tests check the executable procedures stay within them.

// InnerCosts is the Lemma 3.5 decomposition for one index i: the fixed
// schedules of Initialization_i (T0), Setup_i (T1), and Evaluation_i (T2).
type InnerCosts struct {
	T0 int64
	T1 int64
	T2 int64
}

// innerCosts instantiates Lemma 3.5's round analysis for skeleton size b:
//
//	T0 = Õ(D + n/(ε·r) + r·k): multi-source bounded-hop SSSP + overlay embed
//	T1 = Õ(r/(ε·k)·D + r):     collect S_i, broadcast state, overlay SSSP
//	T2 = O(D):                 local combine + converge-cast
func (p Params) innerCosts(b int) InnerCosts {
	if b < 1 {
		b = 1
	}
	return InnerCosts{
		T0: dist.Alg3Schedule(p.N, p.W, p.L, p.Eps, b, p.D) + dist.EmbedSchedule(p.D, b, p.K),
		T1: (p.D + int64(b)) + p.D + dist.OverlaySchedule(p.N, p.W, b, p.K, p.Eps, p.D),
		T2: p.D,
	}
}

// innerBudget is the fixed Lemma 3.1 budget of the inner search over S_i:
// T0 + O(√(log(1/δ)·b))·(T1+T2) with ρ = 1/b (the maximizer may be
// unique).
func (p Params) innerBudget(b int, delta float64) int64 {
	c := p.innerCosts(b)
	k := int64(math.Ceil(math.Sqrt(math.Log(1/delta) * float64(b))))
	return c.T0 + 3*k*(c.T1+c.T2)
}
