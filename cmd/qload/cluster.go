package main

// The cluster mix: qload drives a qrouter front door exactly like an
// application would — uploads through the router, reads through the
// router — and runs cluster.Audit, which walks the live topology and
// checks every replica directly. The timed read phase then hammers the
// router; main fails the run on any 5xx, the zero-read-loss assertion
// the CI kill/revive smoke leans on.

import (
	"fmt"
	"log"
	"math/rand"

	"qcongest/internal/cluster"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// clusterMix uploads graphs distinct workload graphs through the
// router, audits replica parity, and returns the read-phase generator
// with the audit report.
func clusterMix(client *svc.Client, graphs, n int, seed int64) (func(i int64) error, *cluster.AuditReport) {
	if n < 8 || graphs < 1 {
		log.Fatalf("qload: cluster mix needs -n >= 8 and -graphs >= 1, got %d and %d", n, graphs)
	}
	skReq := svc.SketchRequest{Sources: []int{0, 1, 2, 3}, L: 8, K: 4}
	rng := rand.New(rand.NewSource(seed))
	sketches := map[string]svc.SketchRequest{}
	var digests []string
	var first *graph.Graph
	for i := 0; i < graphs; i++ {
		g := graph.RandomWeights(graph.RandomConnected(n, 4*n, rng), 16, rng)
		up, err := client.UploadWire(g, true)
		if err != nil {
			log.Fatalf("qload: cluster upload %d: %v", i, err)
		}
		if _, dup := sketches[up.Digest]; dup {
			continue // the rng collided; fewer distinct graphs is fine
		}
		if first == nil {
			first = g
		}
		sketches[up.Digest] = skReq
		digests = append(digests, up.Digest)
	}
	// Idempotency must hold through the router: the re-upload routes to
	// the same shard and answers Created=false.
	if up, err := client.Upload(first); err != nil {
		log.Fatalf("qload: cluster re-upload: %v", err)
	} else if up.Created || up.Digest != digests[0] {
		log.Fatalf("qload: FAILED — re-upload of %s through the router answered created=%v digest=%s", digests[0], up.Created, up.Digest)
	}

	rep, err := cluster.Audit(client, sketches)
	if err != nil {
		log.Fatalf("qload: FAILED — replica audit: %v", err)
	}
	fmt.Printf("qload cluster: parity verified — %d graphs × every replica of %d shards (%d checks, all byte-identical, %d dead skipped)\n",
		rep.Graphs, rep.Shards, rep.ParityChecks, rep.DeadSkipped)
	fmt.Printf("qload cluster: chain parity verified on %d shards (%d in-memory, topology epoch %d)\n",
		rep.ChainShardsVerified, rep.InMemoryShards, rep.Epoch)

	// The router's answers, fixed once; every timed diameter read must
	// repeat them.
	diameters := make([]int64, len(digests))
	for i, d := range digests {
		if diameters[i], err = client.Diameter(d); err != nil {
			log.Fatalf("qload: cluster reference diameter(%s): %v", d, err)
		}
	}
	return func(i int64) error {
		k := int(i) % len(digests)
		if i%4 == 3 {
			_, err := client.Sketch(digests[k], skReq)
			return err
		}
		dia, err := client.Diameter(digests[k])
		if err == nil && dia != diameters[k] {
			log.Fatalf("qload: FAILED — read %d of %s answered diameter %d, expected %d", i, digests[k], dia, diameters[k])
		}
		return err
	}, &rep
}
