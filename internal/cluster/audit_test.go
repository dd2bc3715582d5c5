package cluster_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// TestAuditSkipsInMemoryShard audits a router in front of one in-memory
// daemon, whose healthz carries no replication section: the chain audit
// must skip that shard as soon as the node answers, and count it, not
// poll out the 30 s chain deadline.
func TestAuditSkipsInMemoryShard(t *testing.T) {
	n := startNode(t, svc.Config{})
	topo, err := cluster.ParseTopology(n.url)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	rc := svc.NewClient(rts.URL)
	waitUntil(t, 5*time.Second, "router ready", func() bool {
		h, err := rc.Health()
		return err == nil && h.Status == "ok"
	})
	up, err := rc.UploadWire(graph.Cycle(12), true)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rep, err := cluster.Audit(rc, map[string]svc.SketchRequest{up.Digest: {Sources: []int{0, 6}, L: 4, K: 2}})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("audit of an in-memory shard took %v", took)
	}
	if rep.ChainShardsVerified != 0 || rep.InMemoryShards != 1 || rep.ParityChecks != 1 {
		t.Fatalf("audit report %+v: want 0 chain-verified, 1 in-memory shard, 1 parity check", rep)
	}
}
