package qcongest_test

import (
	"testing"

	"qcongest"
)

// Tests of the public API facade: everything a downstream user can reach
// without touching internal packages.

func TestPublicApproximateDiameter(t *testing.T) {
	rng := qcongest.NewRand(1)
	g := qcongest.RandomWeights(qcongest.LowDiameter(50, 4, rng), 8, rng)
	res, err := qcongest.Approximate(g, qcongest.DiameterMode, qcongest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Diameter())
	eps := res.Params.Eps.Float()
	if res.Estimate < truth || res.Estimate > (1+eps)*(1+eps)*truth+1e-9 {
		t.Fatalf("estimate %f outside [%f, %f]", res.Estimate, truth, (1+eps)*(1+eps)*truth)
	}
	if res.Rounds <= 0 || res.TheoremBound <= 0 {
		t.Fatalf("bad ledger: %+v", res)
	}
}

func TestPublicSketchServing(t *testing.T) {
	rng := qcongest.NewRand(5)
	g := qcongest.RandomWeights(qcongest.LowDiameter(40, 4, rng), 8, rng)
	s := []int{0, 9, 17, 26, 33}
	eps := qcongest.EpsForN(g.N())

	cache := qcongest.NewSketchCache(4)
	sk := cache.Skeleton(g, s, 12, 2, eps)
	if again := cache.Skeleton(g, s, 12, 2, eps); again != sk {
		t.Fatal("identical query missed the cache")
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	// Cached answers match a direct build, which never undershoots the
	// true eccentricity.
	direct := qcongest.BuildSkeleton(g, s, 12, 2, eps)
	for _, v := range s {
		num, den := cache.ApproxEccentricity(g, s, 12, 2, eps, v)
		if num != direct.ApproxEccentricity(v) || den != direct.DenOut {
			t.Fatalf("cached ẽ(%d) = %d/%d, direct build says %d/%d",
				v, num, den, direct.ApproxEccentricity(v), direct.DenOut)
		}
		if num < g.Eccentricity(v)*den {
			t.Fatalf("ẽ(%d) undershoots the true eccentricity", v)
		}
	}
	direct.Release()
}

func TestPublicApproximateRadius(t *testing.T) {
	rng := qcongest.NewRand(2)
	g := qcongest.RandomWeights(qcongest.LowDiameter(50, 4, rng), 8, rng)
	res, err := qcongest.Approximate(g, qcongest.RadiusMode, qcongest.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate < float64(g.Radius()) {
		t.Fatalf("radius estimate %f below truth %d", res.Estimate, g.Radius())
	}
}

func TestPublicGenerators(t *testing.T) {
	rng := qcongest.NewRand(3)
	graphs := map[string]*qcongest.Graph{
		"path":     qcongest.Path(10),
		"cycle":    qcongest.Cycle(10),
		"star":     qcongest.Star(10),
		"complete": qcongest.Complete(6),
		"grid":     qcongest.Grid(3, 5),
		"tree":     qcongest.RandomTree(20, rng),
		"conn":     qcongest.RandomConnected(20, 40, rng),
		"lowd":     qcongest.LowDiameter(30, 4, rng),
		"dctrl":    qcongest.DiameterControlled(30, 6, rng),
		"barbell":  qcongest.Barbell(4, 3),
	}
	for name, g := range graphs {
		if !g.Connected() {
			t.Errorf("%s: not connected", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicNewGraphAndMetrics(t *testing.T) {
	g := qcongest.NewGraph(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 5)
	if d := g.Diameter(); d != 9 {
		t.Fatalf("diameter %d, want 9", d)
	}
	if r := g.Radius(); r != 5 {
		t.Fatalf("radius %d, want 5", r)
	}
}

func TestPublicLowerBoundPipeline(t *testing.T) {
	s, l, err := qcongest.EqTwoParams(2)
	if err != nil {
		t.Fatal(err)
	}
	rows := 1 << uint(s)
	x := qcongest.NewInput(rows, l)
	y := qcongest.NewInput(rows, l)
	// All-ones: F = 1.
	for i := 0; i < rows; i++ {
		for j := 0; j < l; j++ {
			x.Set(i, j, true)
			y.Set(i, j, true)
		}
	}
	if !qcongest.F(x, y) || !qcongest.FPrime(x, y) {
		t.Fatal("all-ones input should satisfy F and F'")
	}
	alpha, beta, err := qcongest.TheoremWeights(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qcongest.BuildDiameterGap(2, x, y, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	out := qcongest.DecideDiameterRed(c, x, y)
	if !out.Correct || !out.Decided {
		t.Fatalf("reduction on all-ones: %+v", out)
	}
	cr, err := qcongest.BuildRadiusGap(2, x, y, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	rout := qcongest.DecideRadiusRed(cr, x, y)
	if !rout.Correct {
		t.Fatalf("radius reduction: %+v", rout)
	}
}

func TestPublicBaselines(t *testing.T) {
	rng := qcongest.NewRand(4)
	g := qcongest.RandomWeights(qcongest.RandomConnected(20, 40, rng), 6, rng)
	diam, radius, stats, err := qcongest.ClassicalDiameter(g, qcongest.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diam != g.Diameter() || radius != g.Radius() {
		t.Fatalf("baseline mismatch: %d/%d vs %d/%d", diam, radius, g.Diameter(), g.Radius())
	}
	if stats.Rounds <= 0 {
		t.Fatal("no rounds")
	}
	q, err := qcongest.QuantumUnweightedDiameter(g.Unweighted(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Diameter != g.UnweightedDiameter() {
		t.Fatalf("quantum baseline %d, want %d", q.Diameter, g.UnweightedDiameter())
	}
}

func TestPublicLowerBoundRoundsShape(t *testing.T) {
	if qcongest.LowerBoundRounds(1_000_000) <= qcongest.LowerBoundRounds(1_000) {
		t.Fatal("lower bound not growing")
	}
}
