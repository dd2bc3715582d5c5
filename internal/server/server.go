// Package server implements the Server *model* of Elkin et al. (§2.3)
// and the Quantum Simulation Lemma (Lemma 4.1): a three-party protocol —
// Alice, Bob, and a server whose messages are free — that simulates any
// T-round CONGEST algorithm on the Figure 1/2/4 gadget networks with only
// O(T·h·B) charged communication. "Server" here is the paper's proof
// device, not a network daemon: the repository's serving layer (the
// qcongestd HTTP service) lives in internal/svc, and the two are
// unrelated.
//
// The package provides the exact round-by-round node-ownership schedule
// from the lemma's proof, a runner that executes a real distributed
// algorithm on the gadget while classifying every message as charged
// (Alice/Bob to server) or free, and the end-to-end reduction driver of
// Theorems 4.2/4.8: deciding F(x,y) (or F'(x,y)) from a diameter (radius)
// approximation.
package server

import (
	"fmt"
	"math"
	"math/bits"

	"qcongest/internal/congest"
	"qcongest/internal/gadget"
)

// Party identifies who simulates a node at a given round.
type Party int

// Parties.
const (
	ServerParty Party = iota
	AliceParty
	BobParty
)

// String returns the party name.
func (p Party) String() string {
	switch p {
	case AliceParty:
		return "Alice"
	case BobParty:
		return "Bob"
	default:
		return "Server"
	}
}

// nodeKind classifies gadget nodes for the ownership schedule.
type nodeKind int

const (
	kindAlice nodeKind = iota
	kindBob
	kindPath
	kindTree
)

// Ownership is the Lemma 4.1 node-ownership schedule for a gadget
// construction. The schedule is valid for rounds r < 2^h / 2.
type Ownership struct {
	c     *gadget.Construction
	width int // 2^h
	kind  []nodeKind
	col   []int // 1-based column (paths and tree)
	depth []int // tree depth
}

// NewOwnership precomputes the schedule tables for a construction.
func NewOwnership(c *gadget.Construction) *Ownership {
	n := c.G.N()
	o := &Ownership{
		c:     c,
		width: 1 << uint(c.H),
		kind:  make([]nodeKind, n),
		col:   make([]int, n),
		depth: make([]int, n),
	}
	for _, v := range c.VA {
		o.kind[v] = kindAlice
	}
	for _, v := range c.VB {
		o.kind[v] = kindBob
	}
	for i := range c.Paths {
		for j, id := range c.Paths[i] {
			o.kind[id] = kindPath
			o.col[id] = j + 1
		}
	}
	for d := range c.Tree {
		for j, id := range c.Tree[d] {
			o.kind[id] = kindTree
			o.col[id] = j + 1
			o.depth[id] = d
		}
	}
	return o
}

// MaxRounds returns the largest round count the schedule supports
// (T < 2^h / 2).
func (o *Ownership) MaxRounds() int { return o.width/2 - 1 }

// Owner returns who simulates node v at the end of round r (r = 0 is the
// initial state: the server owns all of VS).
func (o *Ownership) Owner(r, v int) Party {
	switch o.kind[v] {
	case kindAlice:
		return AliceParty
	case kindBob:
		return BobParty
	case kindPath:
		j := o.col[v]
		switch {
		case j < 1+r:
			return AliceParty
		case j > o.width-r:
			return BobParty
		default:
			return ServerParty
		}
	default: // tree node at depth d, 1-based column j among 2^d
		j := o.col[v]
		shift := o.width >> uint(o.depth[v]) // 2^(h-i)
		lo := ceilDiv(1+r, shift)
		hi := ceilDiv(o.width-r, shift)
		switch {
		case j < lo:
			return AliceParty
		case j > hi:
			return BobParty
		default:
			return ServerParty
		}
	}
}

// Report is the outcome of a Lemma 4.1 simulation.
type Report struct {
	Rounds            int   // rounds the simulated algorithm ran
	TotalMessages     int64 // all messages the algorithm delivered
	ChargedMessages   int64 // Alice/Bob -> server-owned targets
	FreeMessages      int64 // everything else (intra-party or server-sent)
	MaxChargedPerRnd  int64 // busiest round's charged-message count
	BitsPerMessage    int   // B = Θ(log n)
	ChargedBits       int64 // ChargedMessages · B
	LemmaPerRoundCap  int64 // 2h, from the lemma's proof
	LemmaTotalCap     int64 // 2h · Rounds
	WithinLemmaBounds bool  // both charged caps held
}

// String summarizes the accounting on one line.
func (r Report) String() string {
	return fmt.Sprintf("simulation(rounds=%d charged=%d free=%d chargedBits=%d cap=%d ok=%v)",
		r.Rounds, r.ChargedMessages, r.FreeMessages, r.ChargedBits, r.LemmaTotalCap, r.WithinLemmaBounds)
}

// Simulate runs the given distributed algorithm on the gadget network
// while the three parties simulate it per the Lemma 4.1 ownership
// schedule, and counts the charged communication: messages sent in round
// r by a node Alice or Bob owns (at the end of round r) to a node the
// server owns at the ends of rounds r and r+1. All other traffic is
// either internal to a party or sent by the free server.
func Simulate(c *gadget.Construction, mk func(id int) congest.Proc, opts congest.Options) (Report, error) {
	o := NewOwnership(c)
	rep := Report{
		BitsPerMessage:   bits.Len(uint(c.G.N())),
		LemmaPerRoundCap: int64(2 * c.H),
	}
	perRound := make(map[int]int64)
	opts.Trace = func(round, from, to int, _ congest.Message) {
		rep.TotalMessages++
		sender := o.Owner(round, from)
		if sender != ServerParty && o.Owner(round, to) == ServerParty && o.Owner(round+1, to) == ServerParty {
			rep.ChargedMessages++
			perRound[round]++
		} else {
			rep.FreeMessages++
		}
	}
	stats, err := congest.RunProcs(c.G, mk, opts)
	if err != nil {
		return rep, err
	}
	rep.Rounds = stats.Rounds
	if rep.Rounds > o.MaxRounds() {
		return rep, fmt.Errorf("server: algorithm ran %d rounds, schedule supports %d (need T < 2^h/2)",
			rep.Rounds, o.MaxRounds())
	}
	for _, v := range perRound {
		if v > rep.MaxChargedPerRnd {
			rep.MaxChargedPerRnd = v
		}
	}
	rep.ChargedBits = rep.ChargedMessages * int64(rep.BitsPerMessage)
	rep.LemmaTotalCap = rep.LemmaPerRoundCap * int64(rep.Rounds)
	rep.WithinLemmaBounds = rep.MaxChargedPerRnd <= rep.LemmaPerRoundCap &&
		rep.ChargedMessages <= rep.LemmaTotalCap
	return rep, nil
}

// ReductionOutcome is the result of the Theorem 4.2/4.8 decision rule.
type ReductionOutcome struct {
	Estimate  int64 // the metric value the protocol observed
	Threshold int64 // 3α = 3n²: the decision boundary
	Decided   bool  // the protocol's output for F (or F')
	Truth     bool  // F(x,y) (or F'(x,y)) computed directly
	Correct   bool  // Decided == Truth
}

// DecideDiameter runs the end-to-end Theorem 4.2 reduction on a diameter
// gadget built with the theorem's weights α = n², β = 2n²: any
// (3/2−ε)-approximation Dhat satisfies Dhat < 3n² exactly when F(x,y)=1,
// so the parties output F = [Dhat < 3α]. Here the approximation is the
// exact diameter (the strongest adversary: if even the exact value obeys
// the dichotomy, any (3/2−ε)-approximation does too, by Lemma 4.4).
func DecideDiameter(c *gadget.Construction, x, y *gadget.Input) ReductionOutcome {
	est := c.G.Diameter()
	out := ReductionOutcome{
		Estimate:  est,
		Threshold: 3 * c.Alpha,
		Decided:   est < 3*c.Alpha,
		Truth:     gadget.F(x, y),
	}
	out.Correct = out.Decided == out.Truth
	return out
}

// DecideRadius is the Theorem 4.8 counterpart on a radius gadget.
func DecideRadius(c *gadget.Construction, x, y *gadget.Input) ReductionOutcome {
	est := c.G.Radius()
	out := ReductionOutcome{
		Estimate:  est,
		Threshold: 3 * c.Alpha,
		Decided:   est < 3*c.Alpha,
		Truth:     gadget.FPrime(x, y),
	}
	out.Correct = out.Decided == out.Truth
	return out
}

// LowerBoundRounds returns the Theorem 4.2 round lower bound shape
// Ω(n^(2/3)/log²n) evaluated with constant 1, for reporting next to
// measured values.
func LowerBoundRounds(n int) float64 {
	ln := math.Log2(float64(n))
	return math.Pow(float64(n), 2.0/3.0) / (ln * ln)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
