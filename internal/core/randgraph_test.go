//go:build go1.22

// The build line lets this file use math/rand/v2 while go.mod stays at
// go 1.21, the line the benchmark module's read-only build requires.

package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"qcongest/internal/graph"
	"qcongest/internal/qsim"
)

// randomConnected returns a connected simple graph on n nodes: a random
// spanning tree plus up to extra further random edges. With adversarial
// set every weight is 1 or maxW, a coin flip each, the two extremes the
// rounding treats most differently; otherwise weights are uniform in
// [1, maxW].
func randomConnected(rng *rand.Rand, n, extra int, maxW int64, adversarial bool) *graph.Graph {
	g := graph.New(n)
	seen := make(map[[2]int]bool)
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		w := 1 + rng.Int64N(maxW)
		if adversarial {
			w = 1
			if rng.IntN(2) == 1 {
				w = maxW
			}
		}
		g.MustAddEdge(u, v, w)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.IntN(i)])
	}
	for i := 0; i < extra; i++ {
		add(rng.IntN(n), rng.IntN(n))
	}
	return g
}

// propertyGraphs is the fixed-seed random family the Theorem 1.1 and
// cost-model tests take as extra inputs. Seed i draws the size (8 to 48
// nodes), the density and the weight range (W up to 64) from its own
// PCG stream; odd seeds get uniform weights, even seeds adversarial
// 1-or-W ones.
func propertyGraphs(count int) []*graph.Graph {
	gs := make([]*graph.Graph, count)
	for i := range gs {
		seed := uint64(i + 1)
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		n := 8 + rng.IntN(41)
		gs[i] = randomConnected(rng, n, rng.IntN(2*n), 1+rng.Int64N(64), seed%2 == 0)
	}
	return gs
}

// TestApproximateViolationsBinomialBound runs Theorem 1.1 in both modes
// on the first 400 propertyGraphs (seed i for graph i, the sandwich
// tests' seeding; graph 176's diameter run is the one known violation)
// and bounds the number of runs whose estimate leaves the window
// [1, (1+ε)²]·exact.
//
// A run fails only through one of the theorem's failure events, and a
// union bound over them at the parameters the run uses gives its
// failure rate p = (1-r/n)^n + (n+1)/n²: no sampled set holds a fixed
// extremal vertex (Lemma 3.4's sampling event), or one of the outer
// search and the at most n inner searches misses at δ = 1/n² each.
// Runs are independent, so the count is a sum of Bernoulli variables
// with these rates. By Hoeffding (1956) its upper tail past the mean is
// at most that of Binomial(runs, p̄), p̄ the mean rate, so the test
// fails a correct implementation with probability at most α = 10⁻³:
// it holds with 99.9% confidence. Seeds are fixed, so the outcome is
// deterministic; a failure means the implementation fails more often
// than the theorem allows.
func TestApproximateViolationsBinomialBound(t *testing.T) {
	const graphs, alpha = 400, 1e-3
	runs, violations, rate := 0, 0, 0.0
	for i, g := range propertyGraphs(graphs) {
		for _, mode := range []Mode{DiameterMode, RadiusMode} {
			exact := g.Diameter()
			if mode == RadiusMode {
				exact = g.Radius()
			}
			res, err := Approximate(g, mode, Options{Seed: int64(i + 1), Engine: qsim.Sampled})
			if err != nil {
				t.Fatalf("property graph %d %v: %v", i+1, mode, err)
			}
			if msg := sandwichViolation(res, exact); msg != "" {
				violations++
				t.Logf("property graph %d (n=%d) %v: %s", i+1, g.N(), mode, msg)
			}
			n, r := float64(g.N()), float64(res.Params.R)
			rate += math.Pow(1-r/n, n) + (n+1)/(n*n)
			runs++
		}
	}
	p := rate / float64(runs)
	bound := binomialUpperQuantile(runs, p, alpha)
	t.Logf("%d violations in %d runs; mean failure rate %.4f, one-sided %.1f%% bound %d", violations, runs, p, 100*(1-alpha), bound)
	if violations > bound {
		t.Fatalf("%d violations in %d runs exceed the %.1f%% binomial bound %d at failure rate %.4f",
			violations, runs, 100*(1-alpha), bound, p)
	}
}

// binomialUpperQuantile returns the least k with P[Binomial(n, p) > k]
// <= alpha.
func binomialUpperQuantile(n int, p, alpha float64) int {
	cdf := 0.0
	for k := 0; k < n; k++ {
		lg := lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
		cdf += math.Exp(lg + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
		if 1-cdf <= alpha {
			return k
		}
	}
	return n
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
