// groversearch: the quantum search substrate in isolation.
//
// The paper's algorithm is, at its core, nested quantum maximum finding:
// Lemma 3.1's distributed optimization framework charges
// T0 + O(√(log(1/δ)/ρ))·T rounds, where the √ comes from amplitude
// amplification. This example demonstrates the three layers the library
// builds that on:
//
//  1. Exact state-vector Grover search and its sin²((2j+1)θ) success law.
//  2. BBHT search with an unknown number of marked items.
//  3. Dürr-Høyer maximum finding with O(√N) oracle queries.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"qcongest/internal/qsim"
)

func main() {
	// 1. Grover's law, exactly, on a 6-qubit state vector.
	const domain = 64
	marked := func(x uint64) bool { return x == 42 }
	fmt.Println("Grover success probability for 1 marked item in 64 (exact state vector vs law):")
	for j := 0; j <= 6; j++ {
		s := qsim.GroverIterate(domain, marked, j)
		law := qsim.SuccessProbability(domain, 1, j)
		fmt.Printf("  j=%d: measured %.6f, sin²((2j+1)θ) = %.6f\n", j, s.Prob(42), law)
	}
	opt := int(math.Round(math.Pi/(4*math.Asin(math.Sqrt(1.0/domain))) - 0.5))
	fmt.Printf("  optimal iterations ≈ (π/4)√N = %d\n\n", opt)

	// 2. BBHT: unknown number of marked items.
	rng := rand.New(rand.NewSource(1))
	res := qsim.BBHT(qsim.Exact, domain, func(x uint64) bool { return x%9 == 0 }, rng)
	fmt.Printf("BBHT over 64 items (8 marked, count unknown): found=%v x=%d after %d oracle queries\n\n",
		res.Found, res.Outcome, res.Queries)

	// 3. Dürr-Høyer maximum finding: the primitive behind "find the node
	// with maximum eccentricity".
	vals := make([]int64, 512)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000)
	}
	dh := qsim.DurrHoyerMax(qsim.Sampled, uint64(len(vals)), func(x uint64) int64 { return vals[x] }, math.MaxInt64, rng)
	var want int64
	for _, v := range vals {
		if v > want {
			want = v
		}
	}
	fmt.Printf("Dürr-Høyer max over 512 values: found %d (true max %d) with %d queries (classical needs 512)\n",
		dh.Value, want, dh.Queries)
	fmt.Printf("√N = %.1f — the quantum speedup the paper's round bound inherits\n", math.Sqrt(512))
}
