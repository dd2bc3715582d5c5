// Command table1 regenerates the paper's Table 1: the complexity of
// computing the diameter and radius in the CONGEST model. Every row
// prints the paper's asymptotic Õ(·)/Ω̃(·) shapes (constants 1), and the
// rows this repository implements additionally print measured rounds on a
// shared workload (experiment E1 in DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"qcongest/internal/baseline"
	"qcongest/internal/exp"
)

func main() {
	var (
		n    = flag.Int("n", 150, "workload size for the measured column")
		d    = flag.Int("d", 6, "reference unweighted diameter for the analytic columns")
		seed = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	nf, df := float64(*n), float64(*d)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)

	fmt.Fprintf(tw, "Table 1: complexity of diameter/radius in CONGEST (shapes at n=%d, D=%d)\n\n", *n, *d)
	fmt.Fprintln(tw, "problem\tvariant\tapprox\tÕ classical\tÕ quantum\tΩ̃ classical\tΩ̃ quantum\tsource")
	for _, r := range baseline.Table1() {
		mark := ""
		if r.ThisWork {
			mark = "  ← THIS WORK"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s%s\n",
			r.Problem, r.Variant, r.Approx,
			cost(r.UpperClassical, nf, df), cost(r.UpperQuantum, nf, df),
			cost(r.LowerClassical, nf, df), cost(r.LowerQuantum, nf, df),
			r.SourceUpper, mark)
	}
	tw.Flush()

	fmt.Printf("\nMeasured rows (workload: weighted low-diameter random graph, n=%d, seed=%d):\n\n", *n, *seed)
	entries, err := exp.MeasuredTable1(*n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table1: %v\n", err)
		os.Exit(1)
	}
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "row\tn\tD\tmeasured rounds\tanalytic shape")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f\n", e.Label, e.N, e.D, e.Measured, e.Analytic)
	}
	tw.Flush()
}

func cost(f baseline.CostFn, n, d float64) string {
	if f == nil {
		return "—"
	}
	return fmt.Sprintf("%.0f", f(n, d))
}
