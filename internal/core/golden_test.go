package core

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// approxGoldenFile holds every Result field of approxGoldenDump, taken
// before the evaluator shared one row table across its skeletons. Any
// change to it is a change to the algorithm's answers or its ledger.
const approxGoldenFile = "testdata/approx_golden.txt"

// approxGoldenDump runs Approximate in both modes on a few fixed small
// graphs with the default (Exact) engine and prints every Result field,
// one line per run.
func approxGoldenDump() (string, error) {
	rng := rand.New(rand.NewSource(71))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path16", graph.RandomWeights(graph.Path(16), 9, rng)},
		{"grid5x5", graph.RandomWeights(graph.Grid(5, 5), 12, rng)},
		{"barbell6x4", graph.RandomWeights(graph.Barbell(6, 4), 7, rng)},
		{"spineleaf", graph.RandomWeights(graph.SpineLeaf(3, 5, 4, 2, 1), 16, rng)},
		{"expander48", testGraph(3, 48, 8)},
		{"random64", graph.RandomWeights(graph.RandomConnected(64, 150, rng), 20, rng)},
	}
	var b strings.Builder
	for _, c := range graphs {
		for _, mode := range []Mode{DiameterMode, RadiusMode} {
			for seed := int64(1); seed <= 2; seed++ {
				res, err := Approximate(c.g, mode, Options{Seed: seed})
				if err != nil {
					return "", fmt.Errorf("%s %v seed %d: %w", c.name, mode, seed, err)
				}
				fmt.Fprintf(&b, "%s seed=%d %+v\n", c.name, seed, *res)
			}
		}
	}
	return b.String(), nil
}

// TestApproximateGolden pins core.Approximate's answers and round
// ledger byte for byte.
func TestApproximateGolden(t *testing.T) {
	want, err := os.ReadFile(approxGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := approxGoldenDump()
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, approxGoldenFile, gl[i], wl[i])
		}
	}
	t.Fatalf("dump has %d lines, %s has %d", len(gl), approxGoldenFile, len(wl))
}
