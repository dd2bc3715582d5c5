package server

import (
	"math/rand"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/dist"
	"qcongest/internal/gadget"
)

// TestSimulateParallelEngineDeterminism pins the Lemma 4.1 accounting
// over Figure 1/2 (diameter) and Figure 4 (radius) gadgets: the
// charged/free classification of every message is a function of the
// trace order (a message is charged by the ownership schedule at its
// send round), so each run must see both message classes and stay
// within the lemma's bounds.
func TestSimulateParallelEngineDeterminism(t *testing.T) {
	h := 4
	alpha, beta, err := gadget.TheoremWeights(h)
	if err != nil {
		t.Fatal(err)
	}
	s, l, err := gadget.EqTwoParams(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	x, y := gadget.RandomInput(1<<uint(s), l, true, func() bool { return rng.Intn(2) == 0 }, rng.Intn)

	fig1, err := gadget.BuildDiameter(h, x, y, 3, 5) // Figure 1 base with nominal weights
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := gadget.BuildDiameter(h, x, y, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := gadget.BuildRadius(h, x, y, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		c    *gadget.Construction
	}{
		{"figure1-base", fig1},
		{"figure2-diameter", fig2},
		{"figure4-radius", fig4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOwnership(tc.c)
			budget := o.MaxRounds() - 1
			root := tc.c.A[0]
			rep, err := Simulate(tc.c, func(int) congest.Proc {
				return &dist.BFSTreeProc{Root: root, Budget: budget}
			}, congest.Options{MaxRounds: budget + 2, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ChargedMessages == 0 || rep.FreeMessages == 0 {
				t.Fatalf("degenerate report %+v: both classes must occur for the test to bite", rep)
			}
			if !rep.WithinLemmaBounds {
				t.Fatalf("run violates Lemma 4.1 bounds: %+v", rep)
			}
		})
	}
}
