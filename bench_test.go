// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, per DESIGN.md's experiment index (E1-E13). Each benchmark
// reports the experiment's key quantity (simulated CONGEST rounds,
// quantum queries, charged messages) as a custom metric, so
// `go test -bench=. -benchmem` regenerates the paper's artifacts.
package qcongest_test

import (
	"math"
	"math/rand"
	"testing"

	"qcongest/internal/baseline"
	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/exp"
	"qcongest/internal/gadget"
	"qcongest/internal/graph"
	"qcongest/internal/qsim"
)

// --- E1: Table 1 (measured rows) ---------------------------------------

func BenchmarkTable1Measured(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, err := exp.MeasuredTable1(60, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, e := range entries {
				b.ReportMetric(float64(e.Measured), "rounds_"+shortLabel(e.Label))
			}
		}
	}
}

func shortLabel(s string) string {
	out := make([]rune, 0, 20)
	for _, r := range s {
		switch {
		case r == ' ' || r == '(' || r == ')' || r == '[' || r == ']':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
		if len(out) == 20 {
			break
		}
	}
	return string(out)
}

// --- E2: Theorem 1.1 scaling in n (Figure-equivalent of the upper bound) -

func benchScalingN(b *testing.B, n int) {
	b.ReportAllocs()
	var rounds int64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(n + i)))
		g := graph.RandomWeights(graph.DiameterControlled(n, 6, rng), 16, rng)
		res, err := core.Approximate(g, core.DiameterMode, core.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}

func BenchmarkQuantumDiameterN48(b *testing.B)  { benchScalingN(b, 48) }
func BenchmarkQuantumDiameterN96(b *testing.B)  { benchScalingN(b, 96) }
func BenchmarkQuantumDiameterN192(b *testing.B) { benchScalingN(b, 192) }

// --- E3: Theorem 1.1 scaling in D ---------------------------------------

func benchScalingD(b *testing.B, d int) {
	var rounds int64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(d*100 + i)))
		g := graph.RandomWeights(graph.DiameterControlled(96, d, rng), 16, rng)
		res, err := core.Approximate(g, core.DiameterMode, core.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}

func BenchmarkQuantumDiameterD4(b *testing.B)  { benchScalingD(b, 4) }
func BenchmarkQuantumDiameterD8(b *testing.B)  { benchScalingD(b, 8) }
func BenchmarkQuantumDiameterD16(b *testing.B) { benchScalingD(b, 16) }

// --- E4: quantum/classical crossover ------------------------------------

func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.Crossover(64, []int{4, 16}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(pts) == 2 {
			b.ReportMetric(float64(pts[0].QuantumRounds)/float64(pts[0].ClassicalRounds), "q/c-ratio-lowD")
			b.ReportMetric(float64(pts[1].QuantumRounds)/float64(pts[1].ClassicalRounds), "q/c-ratio-highD")
		}
	}
}

// --- E5: approximation quality -------------------------------------------

func BenchmarkApproxQuality(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rep, err := exp.Quality(2, 40, core.DiameterMode, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		worst = rep.WorstRatio
	}
	b.ReportMetric(worst, "worst-ratio")
}

// --- E6: Figure 1 construction -------------------------------------------

func BenchmarkGadgetFig1(b *testing.B) {
	x, y, err := exp.GadgetInputs(4, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := gadget.BuildDiameter(4, x, y, 3, 5)
		if err != nil {
			b.Fatal(err)
		}
		if c.G.N() != 447 {
			b.Fatal("wrong size")
		}
	}
}

// --- E7: Figure 2 + Lemma 4.4 gap ----------------------------------------

func BenchmarkGadgetDiameterGap(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		reps, err := exp.GapExperiment(2, false, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if !r.Satisfied {
				b.Fatal("dichotomy violated")
			}
		}
		gap = float64(reps[1].Metric) / float64(reps[0].Metric)
	}
	b.ReportMetric(gap, "no/yes-gap")
}

// --- E8: Figure 3 + Table 2 ----------------------------------------------

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vio, _, err := exp.Table2Experiment(2, 1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if vio != 0 {
			b.Fatalf("%d Table 2 violations", vio)
		}
	}
}

// --- E9: Figure 4 + Lemma 4.9 gap ----------------------------------------

func BenchmarkGadgetRadiusGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := exp.GapExperiment(2, true, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if !r.Satisfied {
				b.Fatal("dichotomy violated")
			}
		}
	}
}

// --- E10: Lemma 4.1 simulation --------------------------------------------

func BenchmarkSimulationLemma(b *testing.B) {
	var charged int64
	for i := 0; i < b.N; i++ {
		rep, err := exp.SimulationExperiment(4, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.WithinLemmaBounds {
			b.Fatal("lemma bounds violated")
		}
		charged = rep.ChargedMessages
	}
	b.ReportMetric(float64(charged), "charged-msgs")
}

// --- E11: end-to-end reduction ---------------------------------------------

func BenchmarkReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := exp.ReductionExperiment(2, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if !r.Outcome.Correct {
				b.Fatal("reduction incorrect")
			}
		}
	}
}

// --- E12: quantum search substrate -----------------------------------------

func BenchmarkGroverExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		res := qsim.BBHT(qsim.Exact, 256, func(x uint64) bool { return x == 99 }, rng)
		if !res.Found {
			b.Fatal("missed")
		}
	}
}

func BenchmarkGroverSampled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var queries int64
	for i := 0; i < b.N; i++ {
		res := qsim.BBHT(qsim.Sampled, 1<<16, func(x uint64) bool { return x == 12345 }, rng)
		if !res.Found {
			b.Fatal("missed")
		}
		queries = res.Queries
	}
	b.ReportMetric(float64(queries), "oracle-queries")
}

func BenchmarkDurrHoyerMax(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	b.ResetTimer()
	var queries int64
	for i := 0; i < b.N; i++ {
		res := qsim.DurrHoyerMax(qsim.Sampled, uint64(len(vals)), func(x uint64) int64 { return vals[x] }, math.MaxInt64, rng)
		queries = res.Queries
	}
	b.ReportMetric(float64(queries), "oracle-queries")
}

// --- E13: formula machinery --------------------------------------------------

func BenchmarkFormulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := exp.FormulaExperiment(4)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.FReadOnce || !rep.VEROk {
			b.Fatal("formula machinery broken")
		}
	}
}

// --- E14: spine-leaf DCN fabric (constant-D regime) -----------------------

func BenchmarkSimSpineLeafE14(b *testing.B) {
	cfgs := []exp.SpineLeafConfig{{Spines: 2, Leaves: 4, Hosts: 6}}
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := exp.SpineLeafSweep(cfgs, 8, int64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(pts[0].QuantumRounds) / float64(pts[0].ClassicalRounds)
	}
	b.ReportMetric(ratio, "q/c-ratio")
}

// --- Ablations: the design choices of Eq. (1) --------------------------------

func BenchmarkAblationR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := exp.AblateR(48, []float64{0.5, 1, 2}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range rep.Points {
				b.ReportMetric(float64(p.Rounds), "rounds_"+shortLabel(p.Label))
			}
		}
	}
}

func BenchmarkAblationK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := exp.AblateK(48, []int{1, 3, 6}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range rep.Points {
				b.ReportMetric(float64(p.Rounds), "rounds_"+shortLabel(p.Label))
			}
		}
	}
}

func BenchmarkAblationEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := exp.AblateEps(48, []int64{2, 6, 12}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range rep.Points {
				b.ReportMetric(p.Ratio, "ratio_"+shortLabel(p.Label))
			}
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomWeights(graph.RandomConnected(1000, 4000, rng), 50, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % g.N())
	}
}

func BenchmarkCongestBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(400, 1200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := dist.RunBFSTree(g, 0, 400, congest.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkeletonBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomWeights(graph.RandomConnected(200, 800, rng), 12, rng)
	var s []int
	for v := 0; v < g.N(); v += 16 {
		s = append(s, v)
	}
	eps := dist.EpsForN(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.BuildSkeleton(g, s, 80, 3, eps)
	}
}

func BenchmarkAPSPBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomWeights(graph.RandomConnected(100, 300, rng), 9, rng)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := baseline.RunAPSP(g, 0, congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}
