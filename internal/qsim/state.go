// Package qsim is an exact state-vector quantum simulator with the search
// primitives the paper's algorithm relies on: Grover iteration, the
// Boyer-Brassard-Høyer-Tapp (BBHT) search with an unknown number of marked
// items, and Dürr-Høyer maximum finding. The Exact engine runs the state
// vector; the Sampled engine, for large domains, draws outcomes from the
// success law sin²((2t+1)θ) that the Exact engine validates.
//
// The paper's quantum CONGEST algorithm uses these primitives through the
// distributed quantum optimization framework (Lemma 3.1, internal/qdist);
// the number of amplitude-amplification iterations is the quantity that
// drives round complexity, and both engines here reproduce its exact
// distribution.
package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// State is a pure quantum state on n qubits, stored as 2^n complex
// amplitudes in computational-basis order.
type State struct {
	amp []complex128
}

// NewUniform returns the uniform superposition over basis states
// 0..domain-1 (domain need not be a power of two), on the fewest qubits
// that can hold it. This is the Setup state of the optimization framework.
func NewUniform(domain uint64) *State {
	if domain == 0 {
		panic("qsim: empty domain")
	}
	n := 1
	for uint64(1)<<uint(n) < domain {
		n++
	}
	s := &State{amp: make([]complex128, 1<<uint(n))}
	s.setUniform(domain)
	return s
}

// setUniform resets s in place to the uniform superposition over
// 0..domain-1, with zero amplitude on the padding above domain. The
// state must have been made for domain (NewUniform).
func (s *State) setUniform(domain uint64) {
	a := complex(1/math.Sqrt(float64(domain)), 0)
	for x := range s.amp {
		if uint64(x) < domain {
			s.amp[x] = a
		} else {
			s.amp[x] = 0
		}
	}
}

// Dim returns the state dimension 2^n.
func (s *State) Dim() int { return len(s.amp) }

// Amplitude returns the amplitude of basis state x.
func (s *State) Amplitude(x uint64) complex128 { return s.amp[x] }

// Prob returns the measurement probability of basis state x.
func (s *State) Prob(x uint64) float64 {
	a := s.amp[x]
	return real(a)*real(a) + imag(a)*imag(a)
}

// OraclePhaseFlip multiplies the amplitude of every basis state x with
// marked(x) by -1. This is the standard phase oracle built from a
// reversible evaluation of the predicate.
func (s *State) OraclePhaseFlip(marked func(uint64) bool) {
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if marked(x) {
			s.amp[x] = -s.amp[x]
		}
	}
}

// ReflectAbout reflects the state about the given axis state:
// |ψ> -> 2|a><a|ψ> - |ψ>. The axis must be normalized and of the same
// dimension.
func (s *State) ReflectAbout(axis *State) {
	if len(axis.amp) != len(s.amp) {
		panic("qsim: reflection axis dimension mismatch")
	}
	var inner complex128
	for x := range s.amp {
		inner += cmplx.Conj(axis.amp[x]) * s.amp[x]
	}
	for x := range s.amp {
		s.amp[x] = 2*inner*axis.amp[x] - s.amp[x]
	}
}

// Measure samples a basis state from the current distribution. The state
// is not collapsed (callers re-prepare between runs, as the distributed
// framework does).
func (s *State) Measure(rng *rand.Rand) uint64 {
	u := rng.Float64()
	var acc float64
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		acc += s.Prob(x)
		if u < acc {
			return x
		}
	}
	return uint64(len(s.amp) - 1)
}
