// Command sweep runs the scaling experiments of DESIGN.md:
//
//	-exp=scaling-n   E2: rounds vs n at fixed D (slope ≈ 0.9)
//	-exp=scaling-d   E3: rounds vs D at fixed n (slope ≈ 0.3)
//	-exp=crossover   E4: quantum vs classical rounds across D (cross at n^(1/3))
//	-exp=quality     E5: approximation quality vs the (1+ε)² bound
//	-exp=spineleaf   E14: quantum vs classical on leaf-spine DCN fabrics
//
// Every simulation and every skeleton build runs sequentially; the
// drivers run independent points concurrently. -par bounds how many
// simulations a spineleaf batch keeps in flight (the other drivers
// batch at GOMAXPROCS). It never changes a reported number.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"qcongest/internal/core"
	"qcongest/internal/exp"
)

func main() {
	var (
		which  = flag.String("exp", "scaling-n", "experiment: scaling-n, scaling-d, crossover, quality, spineleaf")
		ns     = flag.String("ns", "64,96,128,192,256", "comma-separated n values (scaling-n)")
		ds     = flag.String("ds", "4,6,8,12,16,24", "comma-separated D values (scaling-d, crossover)")
		n      = flag.Int("n", 128, "fixed n (scaling-d, crossover, quality)")
		d      = flag.Int("d", 6, "fixed D (scaling-n)")
		trials = flag.Int("trials", 8, "trials (quality)")
		mode   = flag.String("mode", "diameter", "diameter or radius")
		seed   = flag.Int64("seed", 1, "random seed")
		spines = flag.Int("spines", 4, "spine switches (spineleaf)")
		leaves = flag.String("leaves", "4,8,16", "comma-separated leaf counts (spineleaf)")
		hosts  = flag.Int("hosts", 8, "hosts per leaf (spineleaf)")
		maxw   = flag.Int64("maxw", 16, "max random edge weight (spineleaf)")
		par    = flag.Int("par", 0, "concurrent simulations in a spineleaf batch (0 = GOMAXPROCS; other sweeps batch at GOMAXPROCS)")
	)
	flag.Parse()

	m := core.DiameterMode
	if *mode == "radius" {
		m = core.RadiusMode
	}

	switch *which {
	case "scaling-n":
		pts, fit, err := exp.ScalingInN(parseInts(*ns), *d, m, *seed)
		die(err)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "n\tD\trounds\tmin{n^0.9·D^0.3, n}")
		for _, p := range pts {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\n", p.N, p.D, p.Rounds, p.Theorem)
		}
		tw.Flush()
		fmt.Printf("\nlog-log slope vs n: %.3f (R²=%.3f); theorem predicts ≈ 0.9 + polylog\n", fit.Slope, fit.R2)

	case "scaling-d":
		pts, fit, err := exp.ScalingInD(*n, parseInts(*ds), m, *seed)
		die(err)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "n\tD\trounds\tmin{n^0.9·D^0.3, n}")
		for _, p := range pts {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\n", p.N, p.D, p.Rounds, p.Theorem)
		}
		tw.Flush()
		fmt.Printf("\nlog-log slope vs D: %.3f (R²=%.3f); theorem predicts ≈ 0.3 below the cap\n", fit.Slope, fit.R2)

	case "crossover":
		pts, err := exp.Crossover(*n, parseInts(*ds), *seed)
		die(err)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "n\tD\tquantum rounds\tclassical rounds\tratio\tn^0.9·D^0.3")
		for _, p := range pts {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.2f\t%.0f\n",
				p.N, p.D, p.QuantumRounds, p.ClassicalRounds,
				float64(p.QuantumRounds)/float64(p.ClassicalRounds), p.TheoremQ)
		}
		tw.Flush()
		if len(pts) > 0 {
			fmt.Printf("\npredicted crossover: D = n^(1/3) = %.1f\n", pts[0].CrossoverD)
		}

	case "ablate-r", "ablate-k", "ablate-eps":
		var rep exp.AblationReport
		var err error
		switch *which {
		case "ablate-r":
			rep, err = exp.AblateR(*n, []float64{0.25, 0.5, 1, 2, 4}, *seed)
		case "ablate-k":
			rep, err = exp.AblateK(*n, []int{1, 2, 4, 8, 16}, *seed)
		default:
			rep, err = exp.AblateEps(*n, []int64{1, 2, 4, 8, 16}, *seed)
		}
		die(err)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "ablation over %s (n=%d)\n", rep.Knob, *n)
		fmt.Fprintln(tw, "variant\trounds\testimate/truth\tundershoot")
		for _, p := range rep.Points {
			fmt.Fprintf(tw, "%s\t%d\t%.4f\t%v\n", p.Label, p.Rounds, p.Ratio, p.Undershoot)
		}
		tw.Flush()

	case "spineleaf":
		var cfgs []exp.SpineLeafConfig
		for _, l := range parseInts(*leaves) {
			cfgs = append(cfgs, exp.SpineLeafConfig{Spines: *spines, Leaves: l, Hosts: *hosts})
		}
		pts, err := exp.SpineLeafSweep(cfgs, *maxw, *seed, *par)
		die(err)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "spines\tleaves\thosts\tn\tD\tquantum rounds\tclassical rounds\tratio\tn^0.9·D^0.3")
		for _, p := range pts {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.0f\n",
				p.Spines, p.Leaves, p.Hosts, p.N, p.D, p.QuantumRounds, p.ClassicalRounds,
				float64(p.QuantumRounds)/float64(p.ClassicalRounds), p.TheoremQ)
		}
		tw.Flush()
		fmt.Printf("\nconstant-D fabric: the low-D regime where the n^0.9·D^0.3 bound is farthest below Θ(n)\n")

	case "quality":
		rep, err := exp.Quality(*trials, *n, m, *seed)
		die(err)
		fmt.Printf("mode          %s\n", rep.Mode)
		fmt.Printf("trials        %d (n=%d)\n", rep.Trials, *n)
		fmt.Printf("worst ratio   %.5f\n", rep.WorstRatio)
		fmt.Printf("mean ratio    %.5f\n", rep.MeanRatio)
		fmt.Printf("(1+ε)² bound  %.5f\n", rep.EpsBound)
		fmt.Printf("undershoots   %d (search landed outside the good mass)\n", rep.Undershoots)

	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		die(err)
		out = append(out, v)
	}
	return exp.Ints(out)
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}
