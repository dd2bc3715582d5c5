package qdist

import (
	"math"
	"math/rand"
	"testing"

	"qcongest/internal/qsim"
)

func linearProc(vals []int64, t0, setup, eval int64) Procedure {
	return Procedure{
		Name:        "test",
		InitRounds:  t0,
		SetupRounds: setup,
		EvalRounds:  eval,
		Domain:      uint64(len(vals)),
		Value:       func(x uint64) int64 { return vals[x] },
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Procedure
		wantErr bool
	}{
		{"ok", linearProc([]int64{1, 2}, 0, 1, 1), false},
		{"empty domain", Procedure{Domain: 0, Value: func(uint64) int64 { return 0 }}, true},
		{"nil oracle", Procedure{Domain: 4}, true},
		{"negative rounds", Procedure{Domain: 4, InitRounds: -1, Value: func(uint64) int64 { return 0 }}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMaximizeFindsTrueMax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(10_000)
		}
		var want int64
		for _, v := range vals {
			if v > want {
				want = v
			}
		}
		res, err := Maximize(linearProc(vals, 5, 3, 7), 1/float64(n), 1e-6, qsim.Sampled, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("trial %d: max %d, want %d", trial, res.Value, want)
		}
	}
}

func TestMinimizeFindsTrueMin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := []int64{42, 17, 99, 3, 55, 3, 70}
	res, err := Minimize(linearProc(vals, 0, 1, 1), 1.0/7, 1e-6, qsim.Exact, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Fatalf("min = %d, want 3", res.Value)
	}
}

// searchFunc is the signature the driver's four entry points share.
type searchFunc func(Procedure, float64, float64, qsim.Engine, *rand.Rand) (Result, error)

// searches lists the four entry points of the one search driver.
var searches = []struct {
	name string
	run  searchFunc
}{
	{"Maximize", Maximize},
	{"Minimize", Minimize},
	{"TopMass", TopMass},
	{"BottomMass", BottomMass},
}

// permProc returns a procedure over a seeded permutation of 0..n-1.
func permProc(n int, seed int64) Procedure {
	vals := make([]int64, n)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		vals[i] = int64(v)
	}
	return linearProc(vals, 3, 2, 2)
}

func TestRoundChargingFormula(t *testing.T) {
	vals := make([]int64, 50)
	for i := range vals {
		vals[i] = int64(i)
	}
	p := linearProc(vals, 11, 4, 6)
	for _, s := range searches {
		res, err := s.run(p, 0.02, 1e-6, qsim.Sampled, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		want := p.InitRounds + 2*p.T()*res.Iterations + p.T()*res.Evaluations
		if res.MeasuredRounds != want {
			t.Fatalf("%s: MeasuredRounds = %d, want %d (ledger identity)", s.name, res.MeasuredRounds, want)
		}
		if res.BudgetRounds != Budget(p, 0.02, 1e-6) {
			t.Fatalf("%s: BudgetRounds = %d, want %d", s.name, res.BudgetRounds, Budget(p, 0.02, 1e-6))
		}
		if res.Value != vals[res.X] || res.Evaluations <= 0 || res.Iterations < 0 {
			t.Fatalf("%s: implausible ledger: %+v", s.name, res)
		}
	}
}

// TestMassSearchPromiseAndCap runs TopMass and BottomMass on both engines
// over 128-element permutations, 30 seeds each:
//   - with ρ = 1/8 and δ = 1e-9 the returned value must lie in the
//     promised top (bottom) mass in at least 29 seeds;
//   - with ρ = 1 and δ = 1/2 the cap is 3 Grover iterations, and each run
//     must be the uncapped search (Maximize, Minimize) from the same seed
//     cut at its first threshold check past the cap;
//   - with ρ = 1/8 and δ = 1e-300 the cap is 225, more than the uncapped
//     search uses, so each run must return what the uncapped search
//     returns, in every field but BudgetRounds.
func TestMassSearchPromiseAndCap(t *testing.T) {
	const n, seeds = 128, 30
	for _, e := range []qsim.Engine{qsim.Exact, qsim.Sampled} {
		for _, c := range []struct {
			name       string
			mass, full searchFunc
			inMass     func(v int64) bool
		}{
			{"TopMass", TopMass, Maximize, func(v int64) bool { return v >= n-n/8 }},
			{"BottomMass", BottomMass, Minimize, func(v int64) bool { return v < n/8 }},
		} {
			in, cut := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				p := permProc(n, seed)
				run := func(f searchFunc, rho, delta float64) Result {
					res, err := f(p, rho, delta, e, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				if c.inMass(run(c.mass, 1.0/8, 1e-9).Value) {
					in++
				}

				_, iterCap := massCap(p, 1, 0.5)
				capped, full := run(c.mass, 1, 0.5), run(c.full, 1, 0.5)
				if capped.Iterations > full.Iterations || (capped.Iterations < full.Iterations && capped.Iterations < iterCap) {
					t.Fatalf("engine %v %s seed %d: %d iterations against %d uncapped, cap %d", e, c.name, seed, capped.Iterations, full.Iterations, iterCap)
				}
				if capped.Iterations < full.Iterations {
					cut++
				}

				_, iterCap = massCap(p, 1.0/8, 1e-300)
				wide, full := run(c.mass, 1.0/8, 1e-300), run(c.full, 1.0/8, 1e-300)
				if full.Iterations >= iterCap {
					t.Fatalf("engine %v %s seed %d: the uncapped search made %d iterations, past the wide cap %d", e, c.name, seed, full.Iterations, iterCap)
				}
				wide.BudgetRounds, full.BudgetRounds = 0, 0
				if wide != full {
					t.Fatalf("engine %v %s seed %d: %+v under a cap it never reaches, want %+v", e, c.name, seed, wide, full)
				}
			}
			if in < seeds-1 {
				t.Fatalf("engine %v %s: %d/%d values inside the promised mass, want at least %d", e, c.name, in, seeds, seeds-1)
			}
			if cut < seeds/2 {
				t.Fatalf("engine %v %s: a cap of 3 cut only %d/%d searches short", e, c.name, cut, seeds)
			}
		}
	}
}

// TestSearchAllocGuard is an allocation-regression guard of the CI
// workflow: a search allocates its memo oracle and, per Dürr-Høyer phase,
// one BBHT's state, and never an object per Grover run. On a 256-element
// permutation every entry point makes more Grover runs than its ceiling
// allows objects, so a per-run allocation would trip it.
func TestSearchAllocGuard(t *testing.T) {
	const n = 256
	p := permProc(n, 71)
	for _, c := range []struct {
		eng     qsim.Engine
		ceiling float64
	}{{qsim.Exact, 32}, {qsim.Sampled, 16}} {
		for _, s := range searches {
			rng := rand.New(rand.NewSource(73))
			var runs int64
			allocs := testing.AllocsPerRun(20, func() {
				res, err := s.run(p, 1.0/8, 1e-9, c.eng, rng)
				if err != nil {
					t.Fatal(err)
				}
				runs += res.Evaluations
			})
			runs /= 21 // AllocsPerRun adds one warm-up call
			if runs <= int64(c.ceiling) {
				t.Fatalf("engine %v %s: %d Grover runs per search, want more than %.0f", c.eng, s.name, runs, c.ceiling)
			}
			if allocs > c.ceiling {
				t.Fatalf("engine %v %s: %.1f objects per search over domain %d, ceiling %.0f", c.eng, s.name, allocs, n, c.ceiling)
			}
		}
	}
}

func TestBudgetFormula(t *testing.T) {
	p := linearProc(make([]int64, 100), 7, 2, 3)
	// k = ceil(sqrt(ln(1e6)/0.01)) = ceil(37.17...) = 38; budget = 7+3*38*5.
	got := Budget(p, 0.01, 1e-6)
	k := int64(math.Ceil(math.Sqrt(math.Log(1e6) / 0.01)))
	want := 7 + 3*k*5
	if got != want {
		t.Fatalf("Budget = %d, want %d", got, want)
	}
}

func TestMeasuredRoundsScaleAsSqrtDomain(t *testing.T) {
	// The framework's measured rounds over a domain of size N with a unique
	// maximum should scale ~√N, the quantum signature the paper exploits.
	rng := rand.New(rand.NewSource(6))
	avg := func(n int) float64 {
		var total int64
		const trials = 40
		for i := 0; i < trials; i++ {
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = rng.Int63n(1 << 40)
			}
			res, err := Maximize(linearProc(vals, 0, 1, 1), 1/float64(n), 1e-6, qsim.Sampled, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += res.MeasuredRounds
		}
		return float64(total) / trials
	}
	small, large := avg(64), avg(1024)
	if ratio := large / small; ratio > 8 {
		t.Fatalf("rounds grew %fx over a 16x domain; want ~4x", ratio)
	}
}

func TestExactAndSampledEnginesAgreeOnArgmax(t *testing.T) {
	vals := []int64{5, 1, 9, 9, 2, 0, 4, 9}
	for _, e := range []qsim.Engine{qsim.Exact, qsim.Sampled} {
		rng := rand.New(rand.NewSource(8))
		res, err := Maximize(linearProc(vals, 0, 1, 1), 3.0/8, 1e-6, e, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 9 {
			t.Fatalf("engine %v: max %d, want 9", e, res.Value)
		}
	}
}
