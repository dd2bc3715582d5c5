package graph

// Component benchmarks for the ingest path: the two wire decoders and
// the digest, each over one million-edge graph. -order in cmd/qload
// switches between the two layouts priced here: sorted insertion order
// is the canonical bulk-export layout (FormatBinary omits its
// permutation section and the decoder streams edges in insertion
// order), random order pays the permuted decode.

import (
	"math/rand"
	"sort"
	"testing"
)

func benchIngestGraph(sorted bool) *Graph {
	rng := rand.New(rand.NewSource(7))
	g := RandomWeights(RandomConnected(125000, 1000000, rng), 16, rng)
	if !sorted {
		return g
	}
	es := append([]Edge(nil), g.Edges()...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	sg := New(g.N())
	for _, e := range es {
		sg.MustAddEdge(e.U, e.V, e.W)
	}
	return sg
}

func BenchmarkIngestParseText(b *testing.B) {
	body := FormatEdgeListVersioned(benchIngestGraph(true))
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEdgeListLimits(body, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestParseBinarySorted(b *testing.B) {
	body := FormatBinary(benchIngestGraph(true))
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBinary(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestParseBinaryPermuted(b *testing.B) {
	body := FormatBinary(benchIngestGraph(false))
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBinary(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestDigest(b *testing.B) {
	// Force the uncached walk: the decoders memoize the digest they fold
	// into their parse loops, so this prices the standalone pass a
	// permuted decode or an AddEdge-built graph would pay.
	g := benchIngestGraph(false)
	g.digestOK = false
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= g.Digest()
	}
	_ = sink
}
