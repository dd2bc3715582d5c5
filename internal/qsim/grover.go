package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Engine abstracts how amplitude amplification is executed: Exact runs the
// full state vector; Sampled draws outcomes from the closed-form success
// law sin²((2j+1)θ) with θ = asin(√(k/N)). Tests verify the two agree, so
// large-domain runs can use Sampled without losing fidelity of either the
// outcome distribution or the query counts.
type Engine int

// Engines.
const (
	Exact Engine = iota
	Sampled
)

// SearchResult reports one search run.
type SearchResult struct {
	Found    bool   // a marked element was located
	Outcome  uint64 // the located element (valid when Found)
	Queries  int64  // oracle invocations (Grover iterations + verification)
	Rounds   int64  // Grover iterations only (each costs Setup+Eval+inverses)
	Measures int64  // number of measurements (each costs one verification)
}

// GroverIterate runs j Grover iterations on the uniform superposition over
// domain and returns the resulting state (Exact engine building block).
func GroverIterate(domain uint64, marked func(uint64) bool, j int) *State {
	s := NewUniform(domain)
	s.groverIterations(domain, newMarks(domain, marked, true), j)
	return s
}

// groverIterations applies j Grover iterations to s in place, flipping
// the phase of every marked x from m's mask, which the first iteration
// fills. Padding states above the domain carry zero amplitude and are
// never flipped, so predicates defined only on [0, domain) stay safe.
func (s *State) groverIterations(domain uint64, m *marks, j int) {
	if j > 0 {
		m.fill()
	}
	for it := 0; it < j; it++ {
		for x, mx := range m.mask {
			if mx {
				s.amp[x] = -s.amp[x]
			}
		}
		s.reflectAboutUniform(domain)
	}
}

// marks answers one search's predicate. The marked set is fixed for the
// whole search, so each element's membership is evaluated once: on the
// Exact engine the first full sweep, in x order, fills a mask that
// every later phase flip and verification reads; on the Sampled engine
// only the count k is kept, so memory stays O(1) in the domain.
// Elements verified before that sweep are evaluated directly, as
// without the cache, so the predicate sees the same calls in the same
// order either way.
type marks struct {
	marked  func(uint64) bool
	mask    []bool // Exact engine: mask[x] = marked(x), once filled
	filled  bool   // mask holds the whole domain
	k       uint64 // Sampled engine: the marked count, once counted
	counted bool
}

// newMarks returns the cache for a search over domain; withMask says
// whether it keeps the Exact engine's mask.
func newMarks(domain uint64, marked func(uint64) bool, withMask bool) *marks {
	m := &marks{marked: marked}
	if withMask {
		m.mask = make([]bool, domain)
	}
	return m
}

// at reports whether x is marked.
func (m *marks) at(x uint64) bool {
	if m.filled {
		return m.mask[x]
	}
	return m.marked(x)
}

// fill evaluates the predicate over the domain into the mask, once.
func (m *marks) fill() {
	if m.filled {
		return
	}
	for x := range m.mask {
		m.mask[x] = m.marked(uint64(x))
	}
	m.filled = true
}

// count returns the number of marked elements of [0, domain), counted
// once (the simulator stands in for physics; the algorithm itself never
// uses this number).
func (m *marks) count(domain uint64) uint64 {
	if !m.counted {
		for x := uint64(0); x < domain; x++ {
			if m.marked(x) {
				m.k++
			}
		}
		m.counted = true
	}
	return m.k
}

// reflectAboutUniform is s.ReflectAbout(NewUniform(domain)) without
// building the axis state: the axis amplitude is 1/√domain below domain
// and zero on the padding. Both loops keep ReflectAbout's expression
// order, so the amplitudes are bit-identical to it.
func (s *State) reflectAboutUniform(domain uint64) {
	a := complex(1/math.Sqrt(float64(domain)), 0)
	var inner complex128
	for x := range s.amp {
		ax := a
		if uint64(x) >= domain {
			ax = 0
		}
		inner += cmplx.Conj(ax) * s.amp[x]
	}
	for x := range s.amp {
		ax := a
		if uint64(x) >= domain {
			ax = 0
		}
		s.amp[x] = 2*inner*ax - s.amp[x]
	}
}

// SuccessProbability returns the exact Grover success law
// sin²((2j+1)·asin(√(k/N))) for k marked items among N after j iterations.
func SuccessProbability(n, k uint64, j int) float64 {
	if k == 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	theta := math.Asin(math.Sqrt(float64(k) / float64(n)))
	v := math.Sin(float64(2*j+1) * theta)
	return v * v
}

// runGrover executes j Grover iterations and one measurement, via the
// chosen engine, returning the measured basis state. The Exact engine
// runs on s, a state over domain that it resets to uniform first; the
// Sampled engine ignores s.
func runGrover(e Engine, s *State, domain uint64, m *marks, j int, rng *rand.Rand) uint64 {
	if e == Exact {
		s.setUniform(domain)
		s.groverIterations(domain, m, j)
		// Restrict measurement to the domain (padding amplitudes are 0).
		return s.Measure(rng)
	}
	k := m.count(domain)
	p := SuccessProbability(domain, k, j)
	if rng.Float64() < p {
		// Uniform over marked items.
		idx := rng.Int63n(int64(k))
		for x := uint64(0); x < domain; x++ {
			if m.marked(x) {
				if idx == 0 {
					return x
				}
				idx--
			}
		}
	}
	if k == domain {
		return uint64(rng.Int63n(int64(domain)))
	}
	// Uniform over unmarked items; with none marked, the idx-th is idx.
	idx := rng.Int63n(int64(domain - k))
	if k == 0 {
		return uint64(idx)
	}
	for x := uint64(0); x < domain; x++ {
		if !m.marked(x) {
			if idx == 0 {
				return x
			}
			idx--
		}
	}
	return 0
}

// BBHT runs the Boyer-Brassard-Høyer-Tapp search for a marked element when
// the number of marked elements is unknown. It returns the element if one
// exists (with the canonical expected O(√(N/k)) oracle queries) and gives
// up after the standard timeout when none does.
func BBHT(e Engine, domain uint64, marked func(uint64) bool, rng *rand.Rand) SearchResult {
	var res SearchResult
	m := 1.0
	lambda := 6.0 / 5.0
	sqrtN := math.Sqrt(float64(domain))
	// After the total query count (iterations plus verification
	// measurements — the latter matter on tiny domains where the iteration
	// counts round to zero) exceeds ~9√N, a marked element would have been
	// found with overwhelming probability; conclude none exists.
	budget := int64(9*sqrtN) + 16
	// One state vector and one marks cache serve every Grover run of
	// the search.
	var s *State
	if e == Exact {
		s = NewUniform(domain)
	}
	mk := newMarks(domain, marked, e == Exact)
	for res.Queries <= budget {
		j := rng.Intn(int(m))
		x := runGrover(e, s, domain, mk, j, rng)
		res.Rounds += int64(j)
		res.Measures++
		res.Queries += int64(j) + 1 // +1: classical verification of x
		if mk.at(x) {
			res.Found = true
			res.Outcome = x
			return res
		}
		m = math.Min(lambda*m, sqrtN)
		if m < 1 {
			m = 1
		}
	}
	return res
}

// MaxResult reports a maximum-finding run.
type MaxResult struct {
	Index   uint64 // argmax over the domain
	Value   int64  // f(Index)
	Queries int64  // total oracle invocations across all BBHT phases
	Rounds  int64  // total Grover iterations across all BBHT phases
}

// DurrHoyerMax finds argmax f over [0, domain) by the Dürr-Høyer threshold
// method: keep a threshold element, BBHT-search for a strictly better one,
// repeat until the search fails. Expected O(√N) total oracle queries.
//
// iterCap bounds the Grover iterations: before each BBHT the threshold is
// evaluated and the search stops, returning it, once the iterations so far
// reach iterCap. The check runs between BBHT calls, so one call can carry
// the total past the cap. Pass math.MaxInt64 for the uncapped search.
func DurrHoyerMax(e Engine, domain uint64, f func(uint64) int64, iterCap int64, rng *rand.Rand) MaxResult {
	best := uint64(rng.Int63n(int64(domain)))
	var out MaxResult
	out.Queries++ // initial classical evaluation of the random start
	for {
		bv := f(best)
		if out.Rounds >= iterCap {
			out.Index, out.Value = best, bv
			return out
		}
		res := BBHT(e, domain, func(x uint64) bool { return f(x) > bv }, rng)
		out.Queries += res.Queries
		out.Rounds += res.Rounds
		if !res.Found {
			out.Index, out.Value = best, bv
			return out
		}
		best = res.Outcome
	}
}
