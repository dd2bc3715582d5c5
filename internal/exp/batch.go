package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"qcongest/internal/baseline"
	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/graph"
)

// concurrently evaluates f(i) for every i in [0, k) on the shared
// congest.ForEach pool and returns the lowest-index error among the
// points that ran. Each f(i) must write its result into its own slot of
// a pre-sized output slice, so the assembled output is identical to a
// sequential loop: per-point work is seeded per index, never from
// shared mutable state. Like the sequential drivers it replaced, the
// sweep fails fast: once any point errors, unstarted points are
// skipped.
func concurrently(k int, f func(i int) error) error {
	errs := make([]error, k)
	var failed atomic.Bool
	congest.ForEach(k, 0, func(i int) {
		if failed.Load() {
			return
		}
		if err := f(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SpineLeafConfig describes one two-tier datacenter fabric scale for the
// E14 sweep (see graph.SpineLeaf for the node layout).
type SpineLeafConfig struct {
	// Spines, Leaves, Hosts parameterize graph.SpineLeaf: spine switch
	// count, leaf switch count, and hosts per leaf.
	Spines, Leaves, Hosts int
}

// SpineLeafPoint is one E14 measurement: quantum vs classical rounds on a
// randomly weighted spine-leaf fabric.
type SpineLeafPoint struct {
	SpineLeafConfig
	N               int     // total node count of the fabric
	D               int     // measured unweighted diameter (≤ 4 by construction)
	QuantumRounds   int64   // measured Theorem 1.1 rounds
	ClassicalRounds int64   // measured APSP baseline rounds
	TheoremQ        float64 // n^0.9 · D^0.3 (uncapped)
}

// SpineLeafSweep runs E14: for each fabric configuration, generate the
// spine-leaf topology with random weights in [1, maxW], then measure the
// Theorem 1.1 quantum algorithm against the classical exact APSP
// baseline. The constant unweighted diameter (≤ 4) of the family makes
// it the extreme low-D regime of the theorem. Classical runs go through
// congest.RunBatch with `parallelism` simulations in flight; quantum
// points run concurrently per configuration.
func SpineLeafSweep(cfgs []SpineLeafConfig, maxW int64, seed int64, parallelism int) ([]SpineLeafPoint, error) {
	if maxW < 1 {
		maxW = 1
	}
	pts := make([]SpineLeafPoint, len(cfgs))
	gs := make([]*graph.Graph, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Spines < 1 || cfg.Leaves < 1 || cfg.Hosts < 0 {
			return nil, fmt.Errorf("exp: invalid spine-leaf config %+v", cfg)
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		gs[i] = graph.RandomWeights(graph.SpineLeaf(cfg.Spines, cfg.Leaves, cfg.Hosts, 1, 1), maxW, rng)
		pts[i] = SpineLeafPoint{SpineLeafConfig: cfg, N: gs[i].N()}
	}
	_, _, stats, err := baseline.ClassicalDiameterBatch(gs, parallelism)
	if err != nil {
		return nil, err
	}
	err = concurrently(len(cfgs), func(i int) error {
		res, aerr := core.Approximate(gs[i], core.DiameterMode, core.Options{Seed: seed + int64(i)})
		if aerr != nil {
			return fmt.Errorf("spine-leaf %+v: %w", cfgs[i], aerr)
		}
		pts[i].D = int(res.Params.D)
		pts[i].QuantumRounds = res.Rounds
		pts[i].ClassicalRounds = int64(stats[i].Rounds)
		pts[i].TheoremQ = math.Pow(float64(pts[i].N), 0.9) * math.Pow(float64(res.Params.D), 0.3)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}
