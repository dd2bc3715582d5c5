// Package qsim is an exact state-vector quantum simulator with the search
// primitives the paper's algorithm relies on: Grover iteration, the
// Boyer-Brassard-Høyer-Tapp (BBHT) search with an unknown number of marked
// items, and Dürr-Høyer maximum finding. The simulator validates the
// success law sin²((2t+1)θ) that the large-domain sampled engine
// (internal/qdist) charges rounds against.
//
// The paper's quantum CONGEST algorithm uses these primitives through the
// distributed quantum optimization framework (Lemma 3.1); the number of
// amplitude-amplification iterations is the quantity that drives round
// complexity, and both engines here reproduce its exact distribution.
package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// State is a pure quantum state on n qubits, stored as 2^n complex
// amplitudes in computational-basis order.
type State struct {
	n   int
	amp []complex128
}

// NewState returns |0...0> on n qubits (1 <= n <= 24; 24 qubits is 256 MiB
// of amplitudes, the practical cap for tests).
func NewState(n int) *State {
	if n < 1 || n > 24 {
		panic(fmt.Sprintf("qsim: qubit count %d outside [1,24]", n))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
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
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
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

// Qubits returns the number of qubits.
func (s *State) Qubits() int { return s.n }

// Dim returns the state dimension 2^n.
func (s *State) Dim() int { return len(s.amp) }

// Amplitude returns the amplitude of basis state x.
func (s *State) Amplitude(x uint64) complex128 { return s.amp[x] }

// Prob returns the measurement probability of basis state x.
func (s *State) Prob(x uint64) float64 {
	a := s.amp[x]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Norm returns the 2-norm of the state (1 up to float error for valid
// states).
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

// H applies the Hadamard gate to qubit q (qubit 0 is the least-significant
// bit).
func (s *State) H(q int) {
	s.checkQubit(q)
	mask := uint64(1) << uint(q)
	inv := complex(1/math.Sqrt2, 0)
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if x&mask == 0 {
			a, b := s.amp[x], s.amp[x|mask]
			s.amp[x] = inv * (a + b)
			s.amp[x|mask] = inv * (a - b)
		}
	}
}

// X applies the Pauli-X (NOT) gate to qubit q.
func (s *State) X(q int) {
	s.checkQubit(q)
	mask := uint64(1) << uint(q)
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if x&mask == 0 {
			s.amp[x], s.amp[x|mask] = s.amp[x|mask], s.amp[x]
		}
	}
}

// Z applies the Pauli-Z gate to qubit q.
func (s *State) Z(q int) {
	s.checkQubit(q)
	mask := uint64(1) << uint(q)
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if x&mask != 0 {
			s.amp[x] = -s.amp[x]
		}
	}
}

// Phase applies the phase gate diag(1, e^{iθ}) to qubit q.
func (s *State) Phase(q int, theta float64) {
	s.checkQubit(q)
	mask := uint64(1) << uint(q)
	p := cmplx.Exp(complex(0, theta))
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if x&mask != 0 {
			s.amp[x] *= p
		}
	}
}

// CNOT applies a controlled-NOT with the given control and target qubits.
func (s *State) CNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("qsim: CNOT control equals target")
	}
	cm := uint64(1) << uint(control)
	tm := uint64(1) << uint(target)
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if x&cm != 0 && x&tm == 0 {
			s.amp[x], s.amp[x|tm] = s.amp[x|tm], s.amp[x]
		}
	}
}

// CZ applies a controlled-Z between two qubits.
func (s *State) CZ(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("qsim: CZ control equals target")
	}
	am := uint64(1) << uint(a)
	bm := uint64(1) << uint(b)
	for x := uint64(0); x < uint64(len(s.amp)); x++ {
		if x&am != 0 && x&bm != 0 {
			s.amp[x] = -s.amp[x]
		}
	}
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
	if axis.n != s.n {
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

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{n: s.n, amp: make([]complex128, len(s.amp))}
	copy(out.amp, s.amp)
	return out
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("qsim: qubit %d outside [0,%d)", q, s.n))
	}
}
