package qsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestNewUniformNonPowerOfTwo(t *testing.T) {
	s := NewUniform(5)
	for x := uint64(0); x < 5; x++ {
		if p := s.Prob(x); math.Abs(p-0.2) > tol {
			t.Fatalf("P(%d) = %f, want 0.2", x, p)
		}
	}
	for x := uint64(5); x < uint64(s.Dim()); x++ {
		if s.Prob(x) > tol {
			t.Fatalf("padding state %d has weight %f", x, s.Prob(x))
		}
	}
}

func TestGroverSingleMarkedExactLaw(t *testing.T) {
	// 16 items, 1 marked: the success probability after j iterations must
	// match sin²((2j+1)θ) exactly.
	const domain = 16
	marked := func(x uint64) bool { return x == 11 }
	for j := 0; j <= 6; j++ {
		s := GroverIterate(domain, marked, j)
		want := SuccessProbability(domain, 1, j)
		if got := s.Prob(11); math.Abs(got-want) > 1e-9 {
			t.Fatalf("j=%d: P(marked) = %.12f, want %.12f", j, got, want)
		}
	}
}

func TestGroverOptimalIterations(t *testing.T) {
	// At j ≈ (π/4)√N the success probability is near 1.
	const domain = 256
	marked := func(x uint64) bool { return x == 200 }
	theta := math.Asin(math.Sqrt(1.0 / domain))
	j := int(math.Round(math.Pi/(4*theta) - 0.5))
	s := GroverIterate(domain, marked, j)
	if p := s.Prob(200); p < 0.999 {
		t.Fatalf("P(marked) after %d iterations = %f, want > 0.999", j, p)
	}
}

func TestGroverMultipleMarked(t *testing.T) {
	const domain = 64
	markedSet := map[uint64]bool{3: true, 17: true, 42: true, 63: true}
	marked := func(x uint64) bool { return markedSet[x] }
	for j := 0; j <= 4; j++ {
		s := GroverIterate(domain, marked, j)
		var got float64
		for x := range markedSet {
			got += s.Prob(x)
		}
		want := SuccessProbability(domain, 4, j)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("j=%d: total marked prob %.12f, want %.12f", j, got, want)
		}
	}
}

func TestBBHTFindsMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, e := range []Engine{Exact, Sampled} {
		for trial := 0; trial < 20; trial++ {
			target := uint64(rng.Intn(128))
			res := BBHT(e, 128, func(x uint64) bool { return x == target }, rng)
			if !res.Found || res.Outcome != target {
				t.Fatalf("engine %v trial %d: BBHT missed the marked item", e, trial)
			}
		}
	}
}

func TestBBHTNoMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res := BBHT(Sampled, 64, func(uint64) bool { return false }, rng)
	if res.Found {
		t.Fatal("BBHT found a marked item in an unmarked domain")
	}
	if res.Queries == 0 {
		t.Fatal("BBHT reported zero queries")
	}
}

func TestBBHTQueryScaling(t *testing.T) {
	// Average queries for a single marked item should grow ~√N: going from
	// N=64 to N=1024 (16x) should grow queries by roughly 4x, certainly
	// less than 16x (which would be classical).
	rng := rand.New(rand.NewSource(3))
	avg := func(domain uint64) float64 {
		var total int64
		const trials = 200
		for i := 0; i < trials; i++ {
			target := uint64(rng.Int63n(int64(domain)))
			res := BBHT(Sampled, domain, func(x uint64) bool { return x == target }, rng)
			if !res.Found {
				t.Fatal("BBHT missed")
			}
			total += res.Queries
		}
		return float64(total) / trials
	}
	small, large := avg(64), avg(1024)
	ratio := large / small
	if ratio > 8 {
		t.Fatalf("query ratio %f for 16x domain growth; want ~4 (quantum), got classical-like scaling", ratio)
	}
	if ratio < 1.5 {
		t.Fatalf("query ratio %f is implausibly flat", ratio)
	}
}

func TestEnginesAgreeOnSuccessRate(t *testing.T) {
	// Exact and Sampled engines must have statistically indistinguishable
	// success rates for a fixed iteration count.
	const domain = 32
	const j = 2
	marked := func(x uint64) bool { return x < 3 }
	want := SuccessProbability(domain, 3, j)
	for _, e := range []Engine{Exact, Sampled} {
		rng := rand.New(rand.NewSource(7))
		s := NewUniform(domain)
		mk := newMarks(domain, marked, e == Exact)
		hits := 0
		const trials = 3000
		for i := 0; i < trials; i++ {
			if marked(runGrover(e, s, domain, mk, j, rng)) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-want) > 0.04 {
			t.Fatalf("engine %v: success rate %f, law %f", e, got, want)
		}
	}
}

func TestDurrHoyerMaxCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, e := range []Engine{Exact, Sampled} {
		for trial := 0; trial < 15; trial++ {
			n := uint64(20 + rng.Intn(100))
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(1000)
			}
			res := DurrHoyerMax(e, n, func(x uint64) int64 { return vals[x] }, math.MaxInt64, rng)
			var want int64 = -1
			for _, v := range vals {
				if v > want {
					want = v
				}
			}
			if res.Value != want {
				t.Fatalf("engine %v trial %d: max = %d, want %d", e, trial, res.Value, want)
			}
		}
	}
}

// TestDurrHoyerMaxCapZero pins the order of the capped search: the
// threshold is evaluated before the cap is checked, so a cap of 0 returns
// the random start after its one classical evaluation, with no BBHT.
func TestDurrHoyerMaxCapZero(t *testing.T) {
	vals := []int64{9, 4, 7, 1, 8, 3, 6}
	for _, e := range []Engine{Exact, Sampled} {
		for seed := int64(0); seed < 10; seed++ {
			start := uint64(rand.New(rand.NewSource(seed)).Int63n(int64(len(vals))))
			calls := 0
			res := DurrHoyerMax(e, uint64(len(vals)), func(x uint64) int64 { calls++; return vals[x] }, 0, rand.New(rand.NewSource(seed)))
			if res.Index != start || res.Value != vals[start] || res.Queries != 1 || res.Rounds != 0 || calls != 1 {
				t.Fatalf("engine %v seed %d: %+v after %d calls, want the start %d after 1 query", e, seed, res, calls, start)
			}
		}
	}
}

func TestDurrHoyerQueryScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	avg := func(n uint64) float64 {
		var total int64
		const trials = 60
		for i := 0; i < trials; i++ {
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = rng.Int63n(1 << 30)
			}
			res := DurrHoyerMax(Sampled, n, func(x uint64) int64 { return vals[x] }, math.MaxInt64, rng)
			total += res.Queries
		}
		return float64(total) / trials
	}
	small, large := avg(64), avg(1024)
	if ratio := large / small; ratio > 8 {
		t.Fatalf("Dürr-Høyer query ratio %f for 16x domain; want ~4", ratio)
	}
}

// norm returns the 2-norm of s (1 up to float error for valid states).
func norm(s *State) float64 {
	var t float64
	for x := range s.amp {
		t += s.Prob(uint64(x))
	}
	return math.Sqrt(t)
}

func TestPropertyGateUnitarity(t *testing.T) {
	// Random sequences of phase flips and reflections about the uniform
	// state preserve the norm.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		domain := uint64(1 + rng.Intn(16))
		s, axis := NewUniform(domain), NewUniform(domain)
		for i := 0; i < 30; i++ {
			if rng.Intn(2) == 0 {
				m := rng.Uint64()
				s.OraclePhaseFlip(func(x uint64) bool { return m>>(x%64)&1 == 1 })
			} else {
				s.ReflectAbout(axis)
			}
		}
		return math.Abs(norm(s)-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGatePanics(t *testing.T) {
	s := NewUniform(4)
	for name, f := range map[string]func(){
		"empty uniform":    func() { NewUniform(0) },
		"reflect mismatch": func() { s.ReflectAbout(NewUniform(8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMeasureDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := complex(1/math.Sqrt2, 0)
	s := &State{amp: []complex128{a, a, 0, 0}} // uniform over {00, 01}
	counts := map[uint64]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		counts[s.Measure(rng)]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatal("measured a zero-amplitude state")
	}
	if f := float64(counts[0]) / trials; math.Abs(f-0.5) > 0.05 {
		t.Fatalf("P(00) estimated %f, want 0.5", f)
	}
}

func TestReflectAboutUniformIsDiffusion(t *testing.T) {
	// Reflecting |0> about the uniform state gives amplitudes 2/N - δ_x0.
	s := &State{amp: make([]complex128, 8)}
	s.amp[0] = 1
	axis := NewUniform(8)
	s.ReflectAbout(axis)
	want0 := 2.0/8 - 1
	if a := real(s.Amplitude(0)); math.Abs(a-want0) > tol {
		t.Fatalf("amp(0) = %f, want %f", a, want0)
	}
	for x := uint64(1); x < 8; x++ {
		if a := real(s.Amplitude(x)); math.Abs(a-0.25) > tol {
			t.Fatalf("amp(%d) = %f, want 0.25", x, a)
		}
	}
}

func TestSuccessProbabilityEdgeCases(t *testing.T) {
	if p := SuccessProbability(16, 0, 5); p != 0 {
		t.Fatalf("k=0 gave %f", p)
	}
	if p := SuccessProbability(16, 16, 0); p != 1 {
		t.Fatalf("k=n gave %f", p)
	}
	if p := SuccessProbability(16, 20, 3); p != 1 {
		t.Fatalf("k>n gave %f", p)
	}
}

// TestGroverIterateMatchesAxisReflection pins the in-place uniform
// reflection of GroverIterate bit for bit (padding included) against
// the explicit reflection about a NewUniform axis state, on
// power-of-two and other domains and several iteration counts. It pins
// BBHT's reuse the same way: one state reset to uniform before each
// run, as runGrover does, must match a fresh state after every run.
func TestGroverIterateMatchesAxisReflection(t *testing.T) {
	marks := []func(uint64) bool{
		func(x uint64) bool { return x == 0 },
		func(x uint64) bool { return x%3 == 1 },
		func(x uint64) bool { return x%2 == 0 },
	}
	for _, domain := range []uint64{1, 2, 3, 5, 8, 13, 16, 37, 64, 100} {
		reused := NewUniform(domain)
		for mi, marked := range marks {
			for _, j := range []int{0, 1, 2, 3, 5, 9} {
				got := GroverIterate(domain, marked, j)
				reused.setUniform(domain)
				reused.groverIterations(domain, newMarks(domain, marked, true), j)
				want := NewUniform(domain)
				axis := NewUniform(domain)
				for it := 0; it < j; it++ {
					want.OraclePhaseFlip(func(x uint64) bool { return x < domain && marked(x) })
					want.ReflectAbout(axis)
				}
				if got.Dim() != want.Dim() {
					t.Fatalf("domain %d: dim %d, want %d", domain, got.Dim(), want.Dim())
				}
				for x := uint64(0); x < uint64(want.Dim()); x++ {
					w := want.Amplitude(x)
					for _, g := range []complex128{got.Amplitude(x), reused.Amplitude(x)} {
						if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
							math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
							t.Fatalf("domain %d, mark %d, j=%d: amp(%d) = %v, want %v", domain, mi, j, x, g, w)
						}
					}
				}
			}
		}
	}
}

// TestBBHTAllocGuard is an allocation-regression guard of the CI
// workflow: an Exact-engine BBHT keeps one state vector and one marked
// mask across its Grover runs, so it allocates a constant number of
// objects (the amplitudes and the mask; the State header stays on the
// stack) however many runs it makes.
func TestBBHTAllocGuard(t *testing.T) {
	const domain = 256
	rng := rand.New(rand.NewSource(73))
	for _, c := range []struct {
		name    string
		marked  func(uint64) bool
		minRuns int64
	}{
		{"one marked", func(x uint64) bool { return x == 99 }, 1},
		{"none marked", func(uint64) bool { return false }, 10},
	} {
		var runs int64
		allocs := testing.AllocsPerRun(20, func() {
			runs = BBHT(Exact, domain, c.marked, rng).Measures
		})
		if runs < c.minRuns {
			t.Fatalf("%s: BBHT made %d Grover runs, want at least %d", c.name, runs, c.minRuns)
		}
		if allocs > 2 {
			t.Fatalf("%s: BBHT over domain %d allocates %.1f objects per search (%d runs), ceiling 2", c.name, domain, allocs, runs)
		}
	}
}

// TestBBHTPredicateCallsPerSearch pins how often one BBHT search calls
// its predicate. The marked set is fixed for the search, so either
// engine evaluates the domain once: the Exact engine into its mask on
// the first Grover sweep, the Sampled engine when it counts k. A
// search over an empty marked set then costs exactly the domain plus
// one verification per measurement on the Sampled engine (its outcome
// draw needs no scan when nothing is marked), and at most that on the
// Exact engine (verifications after the sweep read the mask).
func TestBBHTPredicateCallsPerSearch(t *testing.T) {
	const domain = 128
	rng := rand.New(rand.NewSource(97))
	for _, e := range []Engine{Exact, Sampled} {
		for search := 0; search < 5; search++ {
			calls := 0
			res := BBHT(e, domain, func(uint64) bool { calls++; return false }, rng)
			if res.Found || res.Measures < 2 {
				t.Fatalf("engine %v: found %v after %d runs, want no element after several", e, res.Found, res.Measures)
			}
			want := domain + int(res.Measures)
			if calls > want || (e == Sampled && calls != want) {
				t.Fatalf("engine %v: %d predicate calls in a search of %d runs, want %d", e, calls, res.Measures, want)
			}
		}
	}
}
