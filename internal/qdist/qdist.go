// Package qdist implements the distributed quantum optimization framework
// of Le Gall-Magniez as stated in Lemma 3.1 of the paper: given three
// quantum procedures (Initialization, Setup, Evaluation) with known round
// schedules, the leader finds an element x with f(x) >= M — where the
// amplitude mass on such elements is at least rho — in
//
//	T0 + O(√(log(1/δ)/ρ)) · T
//
// rounds. The framework is simulated at the algorithm level: Setup and
// Evaluation are reversible classical procedures executed coherently, so
// the round cost per amplitude-amplification iteration is fixed by their
// schedules; the number of iterations is the genuine random variable of
// the BBHT/Dürr-Høyer schedule, reproduced by internal/qsim (exact state
// vectors on small domains, the validated sin² law on large ones).
//
// Every search reports both the measured rounds (what this run consumed)
// and the fixed Lemma 3.1 budget (what the paper charges); experiments use
// the measured value. Nothing keeps the first below the second: TopMass and
// BottomMass cap Grover iterations at 3·⌈√(ln(1/δ)/ρ)⌉ but also charge each
// verification and check the cap only between BBHT calls, so their
// measured rounds run 2.5–4.0× the budget (ROADMAP item 1 makes the
// budget a hard cap).
package qdist

import (
	"fmt"
	"math"
	"math/rand"

	"qcongest/internal/qsim"
)

// Procedure describes the three black boxes of the framework with their
// fixed round schedules. Value is the classical simulation of the
// Evaluation unitary: the simulator computes f(x) locally, while the round
// ledger charges the distributed schedule the paper's nodes would run.
type Procedure struct {
	Name        string // label for errors and reports
	InitRounds  int64  // T0: Initialization, charged once
	SetupRounds int64  // Setup schedule (and its inverse costs the same)
	EvalRounds  int64  // Evaluation schedule (and inverse)
	Domain      uint64 // search domain size (x ranges over [0, Domain))
	// Value is the classical simulation of the Evaluation unitary.
	Value func(x uint64) int64
}

// T returns the per-iteration schedule T = Setup + Evaluation.
func (p Procedure) T() int64 { return p.SetupRounds + p.EvalRounds }

// Validate checks the procedure is runnable.
func (p Procedure) Validate() error {
	if p.Domain == 0 {
		return fmt.Errorf("qdist: %s: empty domain", p.Name)
	}
	if p.Value == nil {
		return fmt.Errorf("qdist: %s: nil value oracle", p.Name)
	}
	if p.InitRounds < 0 || p.SetupRounds < 0 || p.EvalRounds < 0 {
		return fmt.Errorf("qdist: %s: negative round schedule", p.Name)
	}
	return nil
}

// Result reports one framework search.
type Result struct {
	X     uint64 // the returned element
	Value int64  // f(X)

	Iterations  int64 // Grover iterations executed (each costs 2T rounds)
	Evaluations int64 // classical verifications (each costs T rounds)

	MeasuredRounds int64 // T0 + 2T·Iterations + T·Evaluations
	BudgetRounds   int64 // the fixed Lemma 3.1 budget for (rho, delta)
}

// Budget returns the Lemma 3.1 round budget T0 + ⌈√(ln(1/δ)/ρ)⌉·c·T with
// the driver's constant c = 3 (two reflections plus verification per
// amplification step).
func Budget(p Procedure, rho, delta float64) int64 {
	if rho <= 0 {
		rho = 1 / float64(p.Domain)
	}
	if delta <= 0 || delta >= 1 {
		delta = 1e-9
	}
	k := int64(math.Ceil(math.Sqrt(math.Log(1/delta) / rho)))
	return p.InitRounds + 3*k*p.T()
}

// memoOracle caches Value calls: the framework evaluates f coherently, so
// repeated classical evaluation of the same x models re-running the same
// fixed schedule — the ledger still charges every invocation, only the
// simulator-side computation is cached.
type memoOracle struct {
	p     Procedure
	cache map[uint64]int64
}

func newMemoOracle(p Procedure) *memoOracle {
	return &memoOracle{p: p, cache: make(map[uint64]int64)}
}

func (m *memoOracle) value(x uint64) int64 {
	if v, ok := m.cache[x]; ok {
		return v
	}
	v := m.p.Value(x)
	m.cache[x] = v
	return v
}

// Maximize finds argmax f over the domain by Dürr-Høyer threshold search,
// charging the framework's round schedule. rho and delta parameterize the
// reported Lemma 3.1 budget (the paper's usage: rho is the promised mass
// at or above the unknown maximum).
func Maximize(p Procedure, rho, delta float64, eng qsim.Engine, rng *rand.Rand) (Result, error) {
	return search(p, Budget(p, rho, delta), math.MaxInt64, eng, rng, false)
}

// Minimize is the minimizing variant of Maximize (used for the radius).
func Minimize(p Procedure, rho, delta float64, eng qsim.Engine, rng *rand.Rand) (Result, error) {
	return search(p, Budget(p, rho, delta), math.MaxInt64, eng, rng, true)
}

// TopMass is the search mode the paper actually uses Lemma 3.1 in: given
// that at least a rho fraction of the domain has f(x) >= M for some
// unknown M, return an element of that top mass with probability >= 1-δ.
// It runs Dürr-Høyer threshold ratcheting but stops once its Grover
// iterations reach 3·⌈√(ln(1/δ)/ρ)⌉ (checked before each BBHT) and returns
// the best element seen — once an element of the top mass is sampled, the
// returned value can only be at least M.
func TopMass(p Procedure, rho, delta float64, eng qsim.Engine, rng *rand.Rand) (Result, error) {
	budget, iterCap := massCap(p, rho, delta)
	return search(p, budget, iterCap, eng, rng, false)
}

// BottomMass is the minimizing variant of TopMass: it returns an element
// within the bottom rho mass (f(x) <= M for the unknown M), used for the
// radius where the good indices have small approximate eccentricity.
func BottomMass(p Procedure, rho, delta float64, eng qsim.Engine, rng *rand.Rand) (Result, error) {
	budget, iterCap := massCap(p, rho, delta)
	return search(p, budget, iterCap, eng, rng, true)
}

// massCap returns the Lemma 3.1 budget and the Grover-iteration cap
// 3·⌈√(ln(1/δ)/ρ)⌉ of a TopMass/BottomMass search, with ρ outside (0, 1]
// read as 1/Domain and δ outside (0, 1) as 1e-9.
func massCap(p Procedure, rho, delta float64) (budget, iterCap int64) {
	if rho <= 0 || rho > 1 {
		rho = 1 / float64(p.Domain)
	}
	if delta <= 0 || delta >= 1 {
		delta = 1e-9
	}
	return Budget(p, rho, delta), 3 * int64(math.Ceil(math.Sqrt(math.Log(1/delta)/rho)))
}

// search is the one Lemma 3.1 driver: a Dürr-Høyer search (qsim) over
// p's memoized oracle, negated when minimize is set, stopped once its
// Grover iterations reach iterCap, and charged 2T per iteration plus T
// per classical evaluation on top of T0.
func search(p Procedure, budget, iterCap int64, eng qsim.Engine, rng *rand.Rand, minimize bool) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	oracle := newMemoOracle(p)
	f := func(x uint64) int64 {
		if minimize {
			return -oracle.value(x)
		}
		return oracle.value(x)
	}
	dh := qsim.DurrHoyerMax(eng, p.Domain, f, iterCap, rng)
	res := Result{
		X:            dh.Index,
		Value:        oracle.value(dh.Index),
		Iterations:   dh.Rounds,
		Evaluations:  dh.Queries - dh.Rounds, // queries = iterations + verifications
		BudgetRounds: budget,
	}
	res.MeasuredRounds = p.InitRounds + 2*p.T()*res.Iterations + p.T()*res.Evaluations
	return res, nil
}
