package core

import (
	"fmt"
	"math/rand"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/qsim"
)

func TestParamsFor(t *testing.T) {
	p, err := ParamsFor(1024, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eps.T != 10 {
		t.Errorf("ε = 1/%d, want 1/10", p.Eps.T)
	}
	// r = 1024^0.4 · 8^-0.2 ≈ 16.0/1.516 ≈ 10.6 → 11.
	if p.R < 9 || p.R > 12 {
		t.Errorf("r = %d, want ≈ 11", p.R)
	}
	// k = ⌈√8⌉ = 3.
	if p.K != 3 {
		t.Errorf("k = %d, want 3", p.K)
	}
	if p.L < 1 {
		t.Errorf("ℓ = %d", p.L)
	}
}

func TestParamsForErrors(t *testing.T) {
	if _, err := ParamsFor(1, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ParamsFor(10, 0, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := ParamsFor(10, 1, 0); err == nil {
		t.Error("w=0 accepted")
	}
}

func TestTheoremBoundCrossover(t *testing.T) {
	// min{n^0.9·D^0.3, n}: for D < n^(1/3) the first term wins.
	small, _ := ParamsFor(1000, 2, 1)
	if small.TheoremBound() >= 1000 {
		t.Errorf("low-D bound %f should be sublinear", small.TheoremBound())
	}
	big, _ := ParamsFor(1000, 500, 1)
	if big.TheoremBound() != 1000 {
		t.Errorf("high-D bound %f should cap at n", big.TheoremBound())
	}
}

func testGraph(seed int64, n int, maxW int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomWeights(graph.LowDiameterExpanderish(n, 4, rng), maxW, rng)
}

// propertyCount is how many propertyGraphs the sandwich and cost-model
// tests sweep on top of their fixed shapes.
const propertyCount = 64

// checkSandwich runs Approximate on g and checks Theorem 1.1's
// guarantee: estimate/exact ∈ [1, (1+ε)²]. For the diameter the upper
// half holds for every set and the lower half with high probability;
// for the radius it is the other way round. Seeds are fixed, so a
// violation is a finding, never noise.
func checkSandwich(t *testing.T, name string, g *graph.Graph, mode Mode, seed int64) {
	t.Helper()
	exact := g.Diameter()
	if mode == RadiusMode {
		exact = g.Radius()
	}
	res, err := Approximate(g, mode, Options{Seed: seed, Engine: qsim.Sampled})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if msg := sandwichViolation(res, exact); msg != "" {
		t.Errorf("%s: %s", name, msg)
	}
	if res.Rounds <= 0 {
		t.Errorf("%s: no rounds charged", name)
	}
}

// sandwichViolation says how res.Estimate leaves Theorem 1.1's window
// [1, (1+ε)²]·exact, or returns "" when it lies inside.
func sandwichViolation(res *Result, exact int64) string {
	eps := res.Params.Eps.Float()
	if upper := (1 + eps) * (1 + eps) * float64(exact); res.Estimate > upper+1e-9 {
		return fmt.Sprintf("estimate %.3f above (1+ε)²·%d = %.3f", res.Estimate, exact, upper)
	}
	if res.Estimate < float64(exact) {
		return fmt.Sprintf("estimate %.3f below the exact value %d", res.Estimate, exact)
	}
	return ""
}

func TestApproximateDiameterSandwich(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkSandwich(t, fmt.Sprintf("fixed seed %d", seed), testGraph(seed, 48, 8), DiameterMode, seed)
	}
	for i, g := range propertyGraphs(propertyCount) {
		checkSandwich(t, fmt.Sprintf("property graph %d (n=%d)", i+1, g.N()), g, DiameterMode, int64(i+1))
	}
}

func TestApproximateRadiusSandwich(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkSandwich(t, fmt.Sprintf("fixed seed %d", seed), testGraph(seed+10, 48, 8), RadiusMode, seed)
	}
	for i, g := range propertyGraphs(propertyCount) {
		checkSandwich(t, fmt.Sprintf("property graph %d (n=%d)", i+1, g.N()), g, RadiusMode, int64(i+1))
	}
}

// TestApproximateDiameterPropertySeed176 pins the one violation a sweep
// of the first 400 propertyGraphs found (0 in radius mode): on graph 176
// (n=45, hop diameter 5, r=3) with seed 176 the diameter estimate is 48
// against an exact 51. No sampled set S_i holds a diametral endpoint,
// so every f(i) is below D. That is the sampling failure Lemma 3.4
// allows, not a search failure: the search still returns the largest
// f(i). The test checks exactly that explanation.
func TestApproximateDiameterPropertySeed176(t *testing.T) {
	g := propertyGraphs(176)[175]
	res, err := Approximate(g, DiameterMode, Options{Seed: 176, Engine: qsim.Sampled})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the sets with approximateWithParams's seeding.
	sets := sampleSets(g.N(), g.N(), res.Params.R, rand.New(rand.NewSource(176*2_654_435_761+1)))
	var best int64
	good := 0
	for _, s := range sets {
		sk := dist.BuildSkeleton(g, s, res.Params.L, res.Params.K, res.Params.Eps)
		var f int64
		for _, v := range s {
			f = max(f, sk.ApproxEccentricity(v))
		}
		if f >= g.Diameter()*sk.DenOut {
			good++
		}
		best = max(best, f)
		sk.Release()
	}
	if res.Num != best {
		t.Fatalf("estimate numerator %d is not the largest f(i) %d: the search failed", res.Num, best)
	}
	if res.Estimate < float64(g.Diameter()) && good != 0 {
		t.Fatalf("estimate %.3f undershoots D=%d although %d sampled sets reach D", res.Estimate, g.Diameter(), good)
	}
}

func TestApproximateErrors(t *testing.T) {
	if _, err := Approximate(graph.New(1), DiameterMode, Options{}); err == nil {
		t.Error("single node accepted")
	}
	disc := graph.New(4)
	disc.MustAddEdge(0, 1, 1)
	if _, err := Approximate(disc, DiameterMode, Options{}); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestApproximateDeterministicGivenSeed(t *testing.T) {
	g := testGraph(3, 32, 5)
	a, err := Approximate(g, DiameterMode, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Approximate(g, DiameterMode, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.Rounds != b.Rounds || a.Index != b.Index {
		t.Fatalf("same seed, different runs: %+v vs %+v", a, b)
	}
}

func TestLemma34GoodIndicesMass(t *testing.T) {
	// Count indices i with f(i) >= D_{G,w}; Lemma 3.4 says Θ(r) of them.
	g := testGraph(7, 40, 6)
	trueD := g.Diameter()
	d := g.UnweightedDiameter()
	params, err := ParamsFor(g.N(), d, g.MaxWeight())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sets := sampleSets(g.N(), g.N(), params.R, rng)
	good := 0
	for _, s := range sets {
		sk := dist.BuildSkeleton(g, s, params.L, params.K, params.Eps)
		var f int64
		for _, cand := range s {
			if v := sk.ApproxEccentricity(cand); v > f {
				f = v
			}
		}
		if f >= trueD*sk.DenOut {
			good++
		}
		// Upper half of Lemma 3.4: f(i) <= (1+ε)²·D for every i.
		eps := params.Eps.Float()
		if float64(f)/float64(sk.DenOut) > (1+eps)*(1+eps)*float64(trueD)+1e-9 {
			t.Fatalf("f(i) = %.3f above (1+ε)²·D", float64(f)/float64(sk.DenOut))
		}
	}
	if good < params.R/2 {
		t.Fatalf("only %d good indices for r = %d; Lemma 3.4 wants Θ(r)", good, params.R)
	}
}

func TestSampleSetsScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := sampleSets(200, 200, 10, rng)
	if len(sets) != 200 {
		t.Fatalf("got %d sets", len(sets))
	}
	total := 0
	for _, s := range sets {
		if len(s) == 0 {
			t.Fatal("empty set survived sampling")
		}
		total += len(s)
	}
	avg := float64(total) / 200
	if avg < 5 || avg > 20 {
		t.Fatalf("average set size %.1f, expected ≈ 10", avg)
	}
	if !checkGoodScale(sets, 10) {
		t.Fatal("Good-Scale violated at sampling rate r/n")
	}
}

// TestCostModelCoversExecutableAlg1: the fixed Algorithm 1 schedule the
// cost model charges must cover the executable procedure's measured
// rounds, on a fixed shape and on every property graph. The Alg3 test
// below does the same for Algorithm 3.
func TestCostModelCoversExecutableAlg1(t *testing.T) {
	check := func(name string, g *graph.Graph, src, l int) {
		t.Helper()
		eps := dist.EpsForN(g.N())
		_, stats, err := dist.RunAlg1(g, src, l, eps, congest.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if model := dist.Alg1Schedule(g.N(), g.MaxWeight(), l, eps); int64(stats.Rounds) > model+2 {
			t.Fatalf("%s: executable Algorithm 1 took %d rounds, model schedule is %d", name, stats.Rounds, model)
		}
	}
	rng := rand.New(rand.NewSource(2))
	check("fixed", graph.RandomWeights(graph.RandomConnected(14, 28, rng), 4, rng), 0, 3)
	for i, g := range propertyGraphs(propertyCount) {
		check(fmt.Sprintf("property graph %d", i+1), g, i%g.N(), 1+i%5)
	}
}

func TestCostModelCoversExecutableAlg3(t *testing.T) {
	check := func(name string, g *graph.Graph, sources []int, l int, rng *rand.Rand) {
		t.Helper()
		eps := dist.EpsForN(g.N())
		delays := dist.SampleDelays(len(sources), g.N(), rng)
		_, stats, err := dist.RunAlg3(g, sources, delays, l, eps, congest.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := g.UnweightedDiameter()
		if model := dist.Alg3Schedule(g.N(), g.MaxWeight(), l, eps, len(sources), d); int64(stats.Rounds) > model {
			t.Fatalf("%s: executable Algorithm 3 took %d rounds, model schedule is %d", name, stats.Rounds, model)
		}
	}
	rng := rand.New(rand.NewSource(3))
	check("fixed", graph.RandomWeights(graph.RandomConnected(12, 24, rng), 3, rng), []int{0, 5, 9}, 2, rng)
	for i, g := range propertyGraphs(propertyCount) {
		prng := rand.New(rand.NewSource(int64(i + 1)))
		sources := prng.Perm(g.N())[:1+prng.Intn(min(4, g.N()))]
		check(fmt.Sprintf("property graph %d", i+1), g, sources, 1+i%4, prng)
	}
}

func TestInnerBudgetMonotoneInB(t *testing.T) {
	p, err := ParamsFor(256, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for _, b := range []int{1, 4, 16, 64} {
		cur := p.innerBudget(b, 1e-6)
		if cur < prev {
			t.Fatalf("inner budget not monotone: b=%d gives %d < %d", b, cur, prev)
		}
		prev = cur
	}
}

func TestFixedPointSaturation(t *testing.T) {
	if v := fixedPoint(1<<55, 3); v <= 0 {
		t.Fatalf("fixedPoint overflowed to %d", v)
	}
	if v := fixedPoint(6, 3); v != 2*valueScale {
		t.Fatalf("fixedPoint(6,3) = %d, want %d", v, 2*valueScale)
	}
	if v := fixedPoint(7, 2); v != 3*valueScale+valueScale/2 {
		t.Fatalf("fixedPoint(7,2) = %d", v)
	}
}

func TestResultLedgerConsistency(t *testing.T) {
	g := testGraph(5, 36, 4)
	res, err := Approximate(g, DiameterMode, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SetsEvaluated <= 0 {
		t.Error("no sets were evaluated")
	}
	if res.OuterEvaluations <= 0 {
		t.Error("no outer evaluations recorded")
	}
	if res.InnerRoundsMeasured <= 0 {
		t.Error("no inner rounds recorded")
	}
	if res.Den <= 0 || res.Num < 0 {
		t.Errorf("bad rational %d/%d", res.Num, res.Den)
	}
	if res.TheoremBound <= 0 {
		t.Error("theorem bound missing")
	}
}

// TestExactValueExtremes checks the one exhaustive scan over a set,
// exactValue, on a unit-weight path with every vertex in S: the
// diameter side must return an endpoint with ẽ in [D, (1+ε)·D], the
// radius side the center with ẽ in [R, (1+ε)·R], both over the
// skeleton's denominator.
func TestExactValueExtremes(t *testing.T) {
	g := graph.Path(9)
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	params := Params{N: g.N(), L: g.N(), K: 2, Eps: dist.EpsForN(g.N())}
	e := newEvaluator(g, params, Options{}, rand.New(rand.NewSource(1)))
	T := params.Eps.T
	for _, c := range []struct {
		mode    Mode
		want    int64
		witness func(int) bool
	}{
		{DiameterMode, g.Diameter(), func(w int) bool { return w == 0 || w == g.N()-1 }},
		{RadiusMode, g.Radius(), func(w int) bool { return w == 4 }},
	} {
		num, den, w := e.exactValue(all, c.mode)
		// num/den in [want, (1+1/T)·want], cross-multiplied.
		if num < c.want*den || num*T > (T+1)*c.want*den {
			t.Errorf("%v: value %d/%d outside [%d, (1+ε)·%d]", c.mode, num, den, c.want, c.want)
		}
		if !c.witness(w) {
			t.Errorf("%v: witness %d is not an extremal vertex of the path", c.mode, w)
		}
	}
}
