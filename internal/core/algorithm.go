package core

import (
	"fmt"
	"math/rand"

	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/qdist"
	"qcongest/internal/qsim"
)

// Mode selects which metric the algorithm approximates.
type Mode int

// Modes.
const (
	DiameterMode Mode = iota
	RadiusMode
)

// String returns the metric name ("diameter" or "radius").
func (m Mode) String() string {
	if m == RadiusMode {
		return "radius"
	}
	return "diameter"
}

// Options configure a run of the algorithm.
type Options struct {
	// Seed drives the set sampling and the quantum search randomness.
	Seed int64
	// Delta is the per-search failure probability; default 1/n².
	Delta float64
	// Engine selects the quantum execution engine. The zero value is
	// qsim.Exact, so the default runs exact state vectors; qsim.Sampled
	// draws outcomes from the closed-form success law instead.
	Engine qsim.Engine
	// Sets overrides the number of sampled vertex sets (default n, as in
	// the paper). Lowering it speeds up experiments at the cost of a
	// larger failure probability.
	Sets int
}

// Result reports one algorithm run with its full round ledger.
type Result struct {
	Mode     Mode
	Params   Params
	Estimate float64 // the (1+o(1))-approximation of D_{G,w} or R_{G,w}
	Num, Den int64   // Estimate as an exact rational

	Index   int // chosen set index i
	Witness int // chosen node s ∈ S_i achieving f(i)

	// Rounds is the measured round count of the full nested search: the
	// outer Lemma 3.1 search charging the fixed inner Lemma 3.5 budget per
	// evaluation, with the number of amplification iterations drawn from
	// the genuine BBHT schedule. This is the paper-faithful cost.
	Rounds int64
	// BudgetRounds is the fixed Lemma 3.1 budget of the outer search.
	BudgetRounds int64
	// TheoremBound is min{n^(9/10)D^(3/10), n} for shape comparison.
	TheoremBound float64

	OuterIterations  int64
	OuterEvaluations int64
	// InnerRoundsMeasured totals the measured rounds of the inner searches
	// that actually executed (reporting only; Rounds charges the fixed
	// budget as the paper does).
	InnerRoundsMeasured int64
	SetsEvaluated       int
	GoodScale           bool
}

// valueScale converts per-skeleton rationals to a common fixed-point unit
// for cross-set comparisons inside the outer search. Final results are
// reported in the chosen skeleton's exact rational.
const valueScale = int64(1) << 20

// Approximate runs the Theorem 1.1 algorithm on the weighted network g.
func Approximate(g *graph.Graph, mode Mode, opts Options) (*Result, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", n)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: network must be connected")
	}
	d := g.UnweightedDiameter()
	params, err := ParamsFor(n, d, g.MaxWeight())
	if err != nil {
		return nil, err
	}
	return approximateWithParams(g, mode, params, opts)
}

// ApproximateWithParams runs the algorithm with an explicit parameter
// choice instead of Eq. (1) — the entry point for the ablation
// experiments over r, ℓ, k, and ε.
func ApproximateWithParams(g *graph.Graph, mode Mode, params Params, opts Options) (*Result, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", g.N())
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: network must be connected")
	}
	return approximateWithParams(g, mode, params, opts)
}

func approximateWithParams(g *graph.Graph, mode Mode, params Params, opts Options) (*Result, error) {
	n := g.N()
	if opts.Delta <= 0 {
		opts.Delta = 1 / float64(n*n)
	}
	sets := opts.Sets
	if sets <= 0 {
		sets = n
	}
	rng := rand.New(rand.NewSource(opts.Seed*2_654_435_761 + 1))

	// Initialization of the outer procedure: sample S_1..S_n locally
	// (free, §3.2) with per-node probability r/n.
	sampled := sampleSets(n, sets, params.R, rng)
	goodScale := checkGoodScale(sampled, params.R)

	bMax := 1
	for _, s := range sampled {
		if len(s) > bMax {
			bMax = len(s)
		}
	}

	eval := newEvaluator(g, params, opts, rng)

	outer := qdist.Procedure{
		Name:        "theorem-1.1-outer-" + mode.String(),
		InitRounds:  0,
		SetupRounds: params.D,
		EvalRounds:  params.innerBudget(bMax, opts.Delta),
		Domain:      uint64(len(sampled)),
		Value:       func(i uint64) int64 { return eval.outerValue(sampled[i], mode) },
	}
	rho := 0.5 * float64(params.R) / float64(n)
	if rho <= 0 || rho > 1 {
		rho = 1 / float64(len(sampled))
	}

	var res qdist.Result
	var err error
	if mode == DiameterMode {
		res, err = qdist.TopMass(outer, rho, opts.Delta, opts.Engine, rng)
	} else {
		res, err = qdist.BottomMass(outer, rho, opts.Delta, opts.Engine, rng)
	}
	if err != nil {
		return nil, err
	}

	chosen := int(res.X)
	num, den, witness := eval.exactValue(sampled[chosen], mode)
	out := &Result{
		Mode:                mode,
		Params:              params,
		Estimate:            float64(num) / float64(den),
		Num:                 num,
		Den:                 den,
		Index:               chosen,
		Witness:             witness,
		Rounds:              res.MeasuredRounds,
		BudgetRounds:        res.BudgetRounds,
		TheoremBound:        params.TheoremBound(),
		OuterIterations:     res.Iterations,
		OuterEvaluations:    res.Evaluations,
		InnerRoundsMeasured: eval.innerRounds,
		SetsEvaluated:       len(eval.innerVal),
		GoodScale:           goodScale,
	}
	return out, nil
}

// sampleSets draws `sets` vertex sets, each node joining independently
// with probability r/n. Empty draws are resampled once with a forced
// single element so every index has a defined f(i) (an empty set would
// contribute value 0/∞ and never be selected anyway; keeping it nonempty
// simplifies the inner procedure).
func sampleSets(n, sets, r int, rng *rand.Rand) [][]int {
	out := make([][]int, sets)
	p := float64(r) / float64(n)
	for i := range out {
		var s []int
		for v := 0; v < n; v++ {
			if rng.Float64() < p {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			s = []int{rng.Intn(n)}
		}
		out[i] = s
	}
	return out
}

// checkGoodScale verifies the Good-Scale event: every |S_i| within a
// generous constant factor of r.
func checkGoodScale(sets [][]int, r int) bool {
	for _, s := range sets {
		if len(s) > 8*r+8 {
			return false
		}
	}
	return true
}

// evaluator runs the inner quantum searches, memoizing the resulting
// outer values by set identity (the outer search revisits indices).
// Every skeleton, the exactValue rebuild included, is assembled over
// one row table: a row d̃^ℓ(s, ·) depends on (G, s, ℓ, ε) only, so a
// source shared by several sets has it computed once per Approximate
// call. The table fills lazily and holds at most n rows of n
// numerators (8n² bytes); it is dropped when the call returns. Each
// skeleton's per-set arena goes back to the dist pool once the set's
// queries are done.
type evaluator struct {
	params Params
	opts   Options
	rng    *rand.Rand
	tab    *dist.RowTable

	innerVal    map[string]int64 // fixed-point outer value
	innerRounds int64
}

func newEvaluator(g *graph.Graph, params Params, opts Options, rng *rand.Rand) *evaluator {
	return &evaluator{
		params: params, opts: opts, rng: rng,
		tab:      dist.NewRowTable(g, params.L, params.Eps),
		innerVal: make(map[string]int64),
	}
}

func setKey(s []int) string {
	b := make([]byte, 0, 4*len(s))
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func (e *evaluator) skeleton(s []int) *dist.Skeleton {
	return e.tab.Skeleton(s, e.params.K)
}

// outerValue runs the inner quantum search over S_i and returns f(i) in
// the common fixed-point unit.
func (e *evaluator) outerValue(s []int, mode Mode) int64 {
	key := setKey(s)
	if v, ok := e.innerVal[key]; ok {
		return v
	}
	sk := e.skeleton(s)
	defer sk.Release()
	costs := e.params.innerCosts(len(s))
	inner := qdist.Procedure{
		Name:        "lemma-3.5-inner",
		InitRounds:  costs.T0,
		SetupRounds: costs.T1,
		EvalRounds:  costs.T2,
		Domain:      uint64(len(s)),
		Value:       func(x uint64) int64 { return sk.ApproxEccentricity(s[x]) },
	}
	var res qdist.Result
	var err error
	if mode == DiameterMode {
		res, err = qdist.Maximize(inner, 1/float64(len(s)), e.opts.Delta, e.opts.Engine, e.rng)
	} else {
		res, err = qdist.Minimize(inner, 1/float64(len(s)), e.opts.Delta, e.opts.Engine, e.rng)
	}
	if err != nil {
		// Inner procedures are validated before running; an error here is
		// a programming bug, not an input condition.
		panic(err)
	}
	e.innerRounds += res.MeasuredRounds
	v := fixedPoint(res.Value, sk.DenOut)
	e.innerVal[key] = v
	return v
}

// exactValue recomputes the chosen set's f(i) as an exact rational with
// its witness node.
func (e *evaluator) exactValue(s []int, mode Mode) (num, den int64, witness int) {
	sk := e.skeleton(s)
	defer sk.Release()
	witness = s[0]
	best := sk.ApproxEccentricity(s[0])
	for _, cand := range s[1:] {
		v := sk.ApproxEccentricity(cand)
		if (mode == DiameterMode && v > best) || (mode == RadiusMode && v < best) {
			best, witness = v, cand
		}
	}
	return best, sk.DenOut, witness
}

// fixedPoint converts num/den to the shared valueScale unit.
func fixedPoint(num, den int64) int64 {
	// num·valueScale may overflow for clamped (infinite) values; saturate.
	hi := num / den
	lo := num % den
	v := hi*valueScale + lo*valueScale/den
	if v < 0 {
		return int64(^uint64(0) >> 1)
	}
	return v
}
