// Package exp contains the experiment drivers that regenerate the paper's
// tables and figures (DESIGN.md's per-experiment index E1-E13). The cmd/
// binaries and the top-level benchmarks are thin wrappers over this
// package so that every reported number has exactly one implementation.
package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qcongest/internal/baseline"
	"qcongest/internal/core"
	"qcongest/internal/graph"
)

// Fit is a least-squares fit of log(y) = Slope·log(x) + Intercept.
type Fit struct {
	Slope     float64 // the power-law exponent
	Intercept float64 // log of the power-law constant
	R2        float64 // coefficient of determination of the log-log fit
}

// FitLogLog fits a power law y ≈ c·x^Slope to the points.
func FitLogLog(xs, ys []float64) Fit {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Fit{Slope: math.NaN()}
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	var sx, sy float64
	for i := range xs {
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
		sx += lx[i]
		sy += ly[i]
	}
	mx, my := sx/float64(len(xs)), sy/float64(len(ys))
	var sxx, sxy, syy float64
	for i := range lx {
		dx, dy := lx[i]-mx, ly[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{Slope: math.NaN()}
	}
	slope := sxy / sxx
	r2 := 0.0
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	}
	return Fit{Slope: slope, Intercept: my - slope*mx, R2: r2}
}

// ScalingPoint is one measurement of the core algorithm.
type ScalingPoint struct {
	N, D    int     // workload size and measured unweighted diameter
	Rounds  int64   // measured rounds of the full nested search
	Budget  int64   // the outer Lemma 3.1 fixed budget for the same run
	Theorem float64 // min{n^0.9 D^0.3, n}
}

// PolylogPower is the polylog exponent the cost model composes on top of
// the theorem's n^(9/10)·D^(3/10): Algorithm 3 contributes log⁴ (rounding
// indices × (1/ε) × ℓ's log × subround stretching) and the outer search
// √log, as derived in DESIGN.md §4.
const PolylogPower = 4.5

// Normalized returns Rounds with the cost model's polylog factor divided
// out, the quantity whose log-log slope against n should approach the
// theorem's 0.9.
func (p ScalingPoint) Normalized() float64 {
	l := math.Log2(float64(p.N))
	return float64(p.Rounds) / math.Pow(l, PolylogPower)
}

// workload builds the standard sweep workload: a connected graph with the
// requested size and (approximate) unweighted diameter, randomly weighted.
func workload(n, d int, maxW int64, rng *rand.Rand) *graph.Graph {
	var g *graph.Graph
	if d <= 0 {
		g = graph.LowDiameterExpanderish(n, 4, rng)
	} else {
		g = graph.DiameterControlled(n, d, rng)
	}
	return graph.RandomWeights(g, maxW, rng)
}

// ScalingInN measures the core algorithm's rounds as n grows at a fixed
// small unweighted diameter (E2). The raw rounds include the cost model's
// polylog factors; the returned fit is on the polylog-normalized rounds,
// whose slope the theorem pins at ≈ 0.9 (the classical baseline's
// normalized slope stays 1.0 — it has no such factors to remove, see
// DESIGN.md §4 and the E2 row of §6).
func ScalingInN(ns []int, d int, mode core.Mode, seed int64) ([]ScalingPoint, Fit, error) {
	pts := make([]ScalingPoint, len(ns))
	err := concurrently(len(ns), func(i int) error {
		n := ns[i]
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := workload(n, d, 16, rng)
		res, err := core.Approximate(g, mode, core.Options{Seed: seed + int64(n)})
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		pts[i] = ScalingPoint{
			N: n, D: int(res.Params.D),
			Rounds: res.Rounds, Budget: res.BudgetRounds, Theorem: res.TheoremBound,
		}
		return nil
	})
	if err != nil {
		return nil, Fit{}, err
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.N)
		ys[i] = p.Normalized()
	}
	return pts, FitLogLog(xs, ys), nil
}

// ScalingInD measures rounds as D grows at fixed n (E3); slope ≈ 0.3
// until the min{·, n} cap bites.
func ScalingInD(n int, ds []int, mode core.Mode, seed int64) ([]ScalingPoint, Fit, error) {
	pts := make([]ScalingPoint, len(ds))
	err := concurrently(len(ds), func(i int) error {
		d := ds[i]
		rng := rand.New(rand.NewSource(seed + int64(d)))
		g := workload(n, d, 16, rng)
		res, err := core.Approximate(g, mode, core.Options{Seed: seed + int64(d)})
		if err != nil {
			return fmt.Errorf("d=%d: %w", d, err)
		}
		pts[i] = ScalingPoint{
			N: n, D: int(res.Params.D),
			Rounds: res.Rounds, Budget: res.BudgetRounds, Theorem: res.TheoremBound,
		}
		return nil
	})
	if err != nil {
		return nil, Fit{}, err
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.D)
		ys[i] = float64(p.Rounds)
	}
	return pts, FitLogLog(xs, ys), nil
}

// CrossPoint compares quantum and classical rounds at one (n, D).
type CrossPoint struct {
	N, D            int     // workload size and measured unweighted diameter
	QuantumRounds   int64   // measured Theorem 1.1 rounds
	ClassicalRounds int64   // measured APSP baseline rounds on the same graph
	TheoremQ        float64 // n^0.9 D^0.3 (uncapped)
	CrossoverD      float64 // n^(1/3)
}

// Crossover sweeps D at fixed n and reports where the quantum bound stops
// beating the classical Θ(n) (E4): at D ≈ n^(1/3) per §1.1. The classical
// baselines run as one congest.RunBatch; the quantum points run
// concurrently per D. Both sides measure the same per-D workload graph.
func Crossover(n int, ds []int, seed int64) ([]CrossPoint, error) {
	gs := make([]*graph.Graph, len(ds))
	for i, d := range ds {
		rng := rand.New(rand.NewSource(seed + int64(d)*7))
		gs[i] = workload(n, d, 16, rng)
	}
	_, _, stats, err := baseline.ClassicalDiameterBatch(gs, 0)
	if err != nil {
		return nil, err
	}
	pts := make([]CrossPoint, len(ds))
	err = concurrently(len(ds), func(i int) error {
		d := ds[i]
		res, aerr := core.Approximate(gs[i], core.DiameterMode, core.Options{Seed: seed + int64(d)})
		if aerr != nil {
			return aerr
		}
		pts[i] = CrossPoint{
			N: n, D: int(res.Params.D),
			QuantumRounds:   res.Rounds,
			ClassicalRounds: int64(stats[i].Rounds),
			TheoremQ:        math.Pow(float64(n), 0.9) * math.Pow(float64(res.Params.D), 0.3),
			CrossoverD:      baseline.CrossoverD(float64(n)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// QualityReport summarizes the approximation-quality experiment (E5).
type QualityReport struct {
	Trials        int       // number of independent runs aggregated
	Mode          core.Mode // metric approximated (diameter or radius)
	WorstRatio    float64   // max estimate/truth
	MeanRatio     float64   // mean estimate/truth
	EpsBound      float64   // (1+ε)²
	Undershoots   int       // estimate < truth (search landed outside the good mass)
	GoodScaleFail int       // runs whose chosen scale missed the good-index promise
}

// Quality runs repeated approximations on random weighted graphs and
// reports the measured estimate/truth ratios against the (1+ε)² bound of
// Theorem 1.1 / Lemma 3.4 (E5).
func Quality(trials, n int, mode core.Mode, seed int64) (QualityReport, error) {
	rep := QualityReport{Trials: trials, Mode: mode, WorstRatio: 1}
	type trialResult struct {
		epsBound  float64
		ratio     float64
		goodScale bool
	}
	results := make([]trialResult, trials)
	err := concurrently(trials, func(trial int) error {
		rng := rand.New(rand.NewSource(seed + int64(trial)*101))
		g := workload(n, 0, 12, rng)
		var truth int64
		if mode == core.DiameterMode {
			truth = g.Diameter()
		} else {
			truth = g.Radius()
		}
		res, err := core.Approximate(g, mode, core.Options{Seed: seed + int64(trial)})
		if err != nil {
			return err
		}
		eps := res.Params.Eps.Float()
		results[trial] = trialResult{
			epsBound:  (1 + eps) * (1 + eps),
			ratio:     res.Estimate / float64(truth),
			goodScale: res.GoodScale,
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	// Reduce in trial order so the report is identical to a sequential run.
	var sum float64
	for _, r := range results {
		rep.EpsBound = r.epsBound
		if r.ratio < 1 {
			rep.Undershoots++
		}
		if r.ratio > rep.WorstRatio {
			rep.WorstRatio = r.ratio
		}
		if !r.goodScale {
			rep.GoodScaleFail++
		}
		sum += r.ratio
	}
	rep.MeanRatio = sum / float64(trials)
	return rep, nil
}

// Table1Entry is one measured row of the E1 experiment.
type Table1Entry struct {
	Label    string  // the Table 1 row name
	N, D     int     // workload size and measured unweighted diameter
	Measured int64   // measured rounds on the shared workload
	Analytic float64 // the row's Õ(·) shape evaluated with constant 1
}

// MeasuredTable1 runs every executable Table 1 row on one workload and
// returns measured-vs-analytic pairs (E1). The analytic column evaluates
// the paper's Õ(·) shape with constant 1. The two APSP rows run as one
// congest.RunBatch; the remaining rows run concurrently, each writing a
// fixed slot, so the row order matches the previous sequential driver.
func MeasuredTable1(n int, seed int64) ([]Table1Entry, error) {
	rng := rand.New(rand.NewSource(seed))
	g := workload(n, 0, 12, rng)
	d := g.UnweightedDiameter()
	nf, df := float64(n), float64(d)
	unweighted := g.Unweighted()

	_, _, stats, err := baseline.ClassicalDiameterBatch([]*graph.Graph{unweighted, g}, 0)
	if err != nil {
		return nil, err
	}
	out := make([]Table1Entry, 6)
	out[0] = Table1Entry{Label: "classical exact unweighted diameter (APSP)", N: n, D: int(d), Measured: int64(stats[0].Rounds), Analytic: nf}
	out[2] = Table1Entry{Label: "classical exact weighted diameter (APSP)", N: n, D: int(d), Measured: int64(stats[1].Rounds), Analytic: nf}

	rows := []func() error{
		func() error {
			q, err := baseline.QuantumUnweightedDiameter(unweighted, seed)
			if err != nil {
				return err
			}
			out[1] = Table1Entry{Label: "quantum unweighted diameter (LM18-style)", N: n, D: int(d), Measured: q.Rounds, Analytic: math.Sqrt(nf * df)}
			return nil
		},
		func() error {
			a32, err := baseline.ClassicalDiameter32(unweighted, seed)
			if err != nil {
				return err
			}
			out[3] = Table1Entry{Label: "classical 3/2-approx unweighted diameter", N: n, D: int(d), Measured: a32.Rounds, Analytic: math.Sqrt(nf) + df}
			return nil
		},
		func() error {
			res, err := core.Approximate(g, core.DiameterMode, core.Options{Seed: seed})
			if err != nil {
				return err
			}
			out[4] = Table1Entry{
				Label:    fmt.Sprintf("quantum weighted %s (1+o(1)) [THIS WORK]", core.DiameterMode),
				N:        n,
				D:        int(res.Params.D),
				Measured: res.Rounds,
				Analytic: res.TheoremBound,
			}
			return nil
		},
		func() error {
			res, err := core.Approximate(g, core.RadiusMode, core.Options{Seed: seed})
			if err != nil {
				return err
			}
			out[5] = Table1Entry{
				Label:    fmt.Sprintf("quantum weighted %s (1+o(1)) [THIS WORK]", core.RadiusMode),
				N:        n,
				D:        int(res.Params.D),
				Measured: res.Rounds,
				Analytic: res.TheoremBound,
			}
			return nil
		},
	}
	if err := concurrently(len(rows), func(i int) error { return rows[i]() }); err != nil {
		return nil, err
	}
	return out, nil
}

// Ints parses nothing; it sorts and dedups an int slice (shared by cmd
// flag handling).
func Ints(vs []int) []int {
	sort.Ints(vs)
	out := vs[:0]
	prev := math.MinInt
	for _, v := range vs {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}
