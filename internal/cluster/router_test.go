package cluster_test

// The cluster fault-injection offensive: a live 2-shard × 2-replica
// topology of real daemons behind a real Router, driven through the
// same svc.Client the CLIs use. The test walks the full failure
// ladder — healthy routing, replica parity, follower death (reads keep
// answering with zero 5xx), follower revival and WAL catch-up to exact
// seq parity, leader death (writes shed with 503 + Retry-After, reads
// survive on the replica) — and checks both metrics views along the way.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// node is one daemon process stand-in: a svc.Server on a real TCP
// listener whose address survives kill/revive (the topology is static,
// so a revived daemon must come back on the same address).
type node struct {
	t    *testing.T
	cfg  svc.Config
	addr string
	url  string
	srv  *svc.Server
	hs   *http.Server
}

func startNodeAt(t *testing.T, addr string, cfg svc.Config) *node {
	t.Helper()
	s, err := svc.Open(cfg)
	if err != nil {
		t.Fatalf("open node: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		t.Fatalf("listen %q: %v", addr, err)
	}
	n := &node{t: t, cfg: cfg, addr: ln.Addr().String(), url: "http://" + ln.Addr().String(), srv: s}
	n.hs = &http.Server{Handler: s}
	go n.hs.Serve(ln)
	t.Cleanup(func() {
		n.hs.Close()
		n.srv.Close()
	})
	return n
}

func startNode(t *testing.T, cfg svc.Config) *node {
	return startNodeAt(t, "127.0.0.1:0", cfg)
}

// kill simulates SIGKILL: the listener drops and the store is crashed
// without any flush or snapshot.
func (n *node) kill() {
	n.t.Helper()
	n.hs.Close()
	n.srv.Crash()
}

// revive restarts the daemon over the same data dir on the same address.
func (n *node) revive() *node {
	n.t.Helper()
	return startNodeAt(n.t, n.addr, n.cfg)
}

func (n *node) client() *svc.Client { return svc.NewClient(n.url) }

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getJSON fetches url and decodes the body whatever the status code
// (health endpoints answer structured bodies on 503 too).
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func digestSet(t *testing.T, c *svc.Client) map[string]bool {
	t.Helper()
	infos, err := c.Graphs()
	if err != nil {
		t.Fatalf("listing: %v", err)
	}
	set := make(map[string]bool, len(infos))
	for _, gi := range infos {
		set[gi.Digest] = true
	}
	return set
}

func sameDigests(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if !b[d] {
			return false
		}
	}
	return true
}

func TestRouterClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e is not a -short test")
	}
	poll := 20 * time.Millisecond
	token := "e2e-cluster-secret"

	// Shard 0 and shard 1, each a durable leader plus a durable
	// WAL-shipping follower.
	leaders := []*node{
		startNode(t, svc.Config{DataDir: t.TempDir(), ClusterToken: token}),
		startNode(t, svc.Config{DataDir: t.TempDir(), ClusterToken: token}),
	}
	followers := []*node{
		startNode(t, svc.Config{DataDir: t.TempDir(), ClusterToken: token, FollowURL: leaders[0].url, FollowPoll: poll}),
		startNode(t, svc.Config{DataDir: t.TempDir(), ClusterToken: token, FollowURL: leaders[1].url, FollowPoll: poll}),
	}

	spec := fmt.Sprintf("%s;%s,%s;%s", leaders[0].url, followers[0].url, leaders[1].url, followers[1].url)
	topo, err := cluster.ParseTopology(spec)
	if err != nil {
		t.Fatalf("ParseTopology(%q): %v", spec, err)
	}
	// 200ms probes: fast enough that readiness waits stay sub-second,
	// slow enough that the follower-kill phase below gets a real window
	// where the dead node is still marked ready and reads must fail over.
	// PromoteAfter 5 gives the leader-death phase a full second to pin
	// the 503-shed behavior before auto-promotion kicks in.
	probeEvery := 200 * time.Millisecond
	promoteAfter := 5
	rt, err := cluster.NewRouter(cluster.Config{
		Topology:     topo,
		ProbeEvery:   probeEvery,
		PromoteAfter: promoteAfter,
		ClusterToken: token,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	rc := svc.NewClient(rts.URL)

	// Let the seed probe sweep finish before the first write: a peer the
	// prober has never reached reads as down, and writes to it shed.
	waitUntil(t, 5*time.Second, "seed probe sweep", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, rts.URL+"/v1/cluster", &info)
		for _, s := range info.Shards {
			for _, nd := range s.Nodes {
				if !nd.Ready {
					return false
				}
			}
		}
		return true
	})

	// --- Healthy routing: uploads spread across shards by digest. ---

	graphs := map[string]*graph.Graph{} // digest -> graph, from upload receipts
	upload := func(g *graph.Graph, binary bool) string {
		t.Helper()
		var resp svc.UploadResponse
		var err error
		if binary {
			resp, err = rc.UploadWire(g, true)
		} else {
			resp, err = rc.Upload(g)
		}
		if err != nil {
			t.Fatalf("upload via router: %v", err)
		}
		graphs[resp.Digest] = g
		return resp.Digest
	}
	upload(graph.Path(9), false)
	upload(graph.Star(6), true)
	upload(graph.Grid(3, 4), false)
	upload(graph.Barbell(4, 3), true)
	// Keep feeding distinct cycles until both shards own at least two
	// graphs, so every later assertion exercises both shards. The ring
	// spreads fnv-hashed digests well; a handful of extras suffices.
	for n := 3; ; n++ {
		if n > 80 {
			t.Fatal("ring never placed two graphs on each shard")
		}
		ok := true
		for _, l := range leaders {
			if len(digestSet(t, l.client())) < 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		upload(graph.Cycle(n), n%2 == 0)
	}

	// Idempotent re-upload routes to the same shard and reports
	// Created=false — the cluster answers exactly like one daemon.
	for d, g := range graphs {
		resp, err := rc.Upload(g)
		if err != nil {
			t.Fatalf("re-upload: %v", err)
		}
		if resp.Created || resp.Digest != d {
			t.Fatalf("re-upload of %s answered created=%v digest=%s", d, resp.Created, resp.Digest)
		}
		break
	}

	// Each upload receipt must have landed on exactly one shard leader.
	shardDigests := make([]map[string]bool, len(leaders))
	total := 0
	for i, l := range leaders {
		shardDigests[i] = digestSet(t, l.client())
		total += len(shardDigests[i])
	}
	if total != len(graphs) {
		t.Fatalf("leaders hold %d graphs, router acknowledged %d", total, len(graphs))
	}
	for d := range graphs {
		if shardDigests[0][d] == shardDigests[1][d] {
			t.Fatalf("digest %s is on %d shards, want exactly 1", d, map[bool]int{true: 2, false: 0}[shardDigests[0][d]])
		}
	}

	// --- Replica parity: followers converge to their leader's set. ---

	for i, f := range followers {
		i, f := i, f
		waitUntil(t, 10*time.Second, fmt.Sprintf("follower %d catch-up", i), func() bool {
			return sameDigests(digestSet(t, f.client()), shardDigests[i])
		})
	}

	// --- Merged listing: all digests, digest-sorted. ---

	infos, err := rc.Graphs()
	if err != nil {
		t.Fatalf("router listing: %v", err)
	}
	if len(infos) != len(graphs) {
		t.Fatalf("router listing has %d graphs, want %d", len(infos), len(graphs))
	}
	if !sort.SliceIsSorted(infos, func(i, j int) bool { return infos[i].Digest < infos[j].Digest }) {
		t.Fatal("router listing is not digest-sorted")
	}

	// --- Reads via router match the owning leader byte for byte. ---

	sketchReq := svc.SketchRequest{Sources: []int{0, 1}, L: 8, K: 2}
	ownerOf := func(d string) *svc.Client {
		for i := range leaders {
			if shardDigests[i][d] {
				return leaders[i].client()
			}
		}
		t.Fatalf("digest %s has no owner", d)
		return nil
	}
	for d := range graphs {
		want, err := ownerOf(d).Diameter(d)
		if err != nil {
			t.Fatalf("direct diameter(%s): %v", d, err)
		}
		got, err := rc.Diameter(d)
		if err != nil {
			t.Fatalf("router diameter(%s): %v", d, err)
		}
		if got != want {
			t.Fatalf("diameter(%s): router %d, owner %d", d, got, want)
		}
		wantSk, err := ownerOf(d).Sketch(d, sketchReq)
		if err != nil {
			t.Fatalf("direct sketch(%s): %v", d, err)
		}
		gotSk, err := rc.Sketch(d, sketchReq)
		if err != nil {
			t.Fatalf("router sketch(%s): %v", d, err)
		}
		if !reflect.DeepEqual(gotSk, wantSk) {
			t.Fatalf("sketch(%s): router and owner disagree", d)
		}
	}

	// --- Batch: split by shard, reassembled in request order. ---

	var all []string
	for d := range graphs {
		all = append(all, d)
	}
	sort.Strings(all)
	all = append(all, all[0]) // a repeat must survive reassembly too
	batch, err := rc.Batch(svc.BatchRequest{Digests: all})
	if err != nil {
		t.Fatalf("router batch: %v", err)
	}
	if len(batch.Results) != len(all) {
		t.Fatalf("batch answered %d results for %d digests", len(batch.Results), len(all))
	}
	for i, res := range batch.Results {
		if res.Digest != all[i] {
			t.Fatalf("batch result %d is for %s, want %s", i, res.Digest, all[i])
		}
		want, err := ownerOf(all[i]).Diameter(all[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Diameter != want {
			t.Fatalf("batch diameter(%s) = %d, owner says %d", all[i], res.Diameter, want)
		}
	}

	// --- Cluster descriptor and router health settle to all-ready. ---

	waitUntil(t, 5*time.Second, "all nodes ready in /v1/cluster", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, rts.URL+"/v1/cluster", &info)
		if len(info.Shards) != 2 {
			return false
		}
		for _, s := range info.Shards {
			if len(s.Nodes) != 2 || s.Nodes[0].Role != "leader" || s.Nodes[1].Role != "follower" {
				t.Fatalf("malformed shard descriptor: %+v", s)
			}
			for _, nd := range s.Nodes {
				if !nd.Ready || !nd.Alive {
					return false
				}
			}
		}
		return true
	})
	var rh cluster.RouterHealth
	if code := getJSON(t, rts.URL+"/healthz", &rh); code != http.StatusOK || rh.Status != "ok" || rh.ShardsReady != 2 || rh.FollowersReady != 2 {
		t.Fatalf("router healthz: code=%d %+v", code, rh)
	}

	// --- Kill shard 0's follower: reads must keep answering, zero 5xx. ---

	var shard0 []string
	for d := range shardDigests[0] {
		shard0 = append(shard0, d)
	}
	sort.Strings(shard0)
	deadFollower := followers[0]
	deadFollower.kill()
	// Read immediately, inside the probe interval: the router still
	// believes the follower is ready, so rotation lands reads on the
	// corpse and per-request failover is what keeps them answering.
	for round := 0; round < 6; round++ {
		for _, d := range shard0 {
			if _, err := rc.Diameter(d); err != nil {
				t.Fatalf("read of %s failed right after the follower died: %v", d, err)
			}
		}
	}
	var rm cluster.RouterMetrics
	getJSON(t, rts.URL+"/metrics", &rm)
	if n := rm.Shards[0].ReadFailovers; n == 0 {
		t.Fatal("follower death produced no read failovers in the ledger")
	}
	// Once the probe notices, the dead node leaves rotation and reads
	// keep working without ever surfacing an error.
	waitUntil(t, 5*time.Second, "probe to notice the dead follower", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, rts.URL+"/v1/cluster", &info)
		nd := info.Shards[0].Nodes[1]
		return !nd.Alive && !nd.Ready
	})
	for round := 0; round < 4; round++ {
		for _, d := range shard0 {
			if _, err := rc.Diameter(d); err != nil {
				t.Fatalf("read of %s failed with the follower dead: %v", d, err)
			}
		}
	}
	getJSON(t, rts.URL+"/metrics", &rm)
	if n := rm.Shards[0].ReadFailures; n != 0 {
		t.Fatalf("reads failed %d times with the leader still up", n)
	}

	// --- Revive the follower: it must catch up over /v1/replicate to
	// exact seq parity with its leader, losing nothing. ---

	revived := deadFollower.revive()
	waitUntil(t, 10*time.Second, "revived follower catch-up", func() bool {
		return sameDigests(digestSet(t, revived.client()), shardDigests[0])
	})
	var lh, fh svc.HealthResponse
	getJSON(t, leaders[0].url+"/healthz", &lh)
	waitUntil(t, 5*time.Second, "revived follower seq parity", func() bool {
		getJSON(t, revived.url+"/healthz", &fh)
		return fh.Replication != nil && fh.Replication.Seq == lh.Replication.Seq
	})
	if fh.Replication.Role != "follower" || lh.Replication.Role != "leader" {
		t.Fatalf("roles: leader=%q follower=%q", lh.Replication.Role, fh.Replication.Role)
	}
	waitUntil(t, 5*time.Second, "probe to re-admit the revived follower", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, rts.URL+"/v1/cluster", &info)
		return info.Shards[0].Nodes[1].Ready
	})

	// --- Kill shard 0's leader: writes shed with 503 + Retry-After,
	// reads survive on the revived replica. ---

	leaders[0].kill()
	waitUntil(t, 5*time.Second, "probe to notice the dead leader", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, rts.URL+"/v1/cluster", &info)
		nd := info.Shards[0].Nodes[0]
		return !nd.Alive && !nd.Ready
	})
	_, err = rc.Upload(graphs[shard0[0]]) // digest provably owned by shard 0
	var se *svc.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("write to a leaderless shard answered %v, want a 503 shed", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("shed 503 carried no Retry-After hint: %+v", se)
	}
	if !strings.Contains(se.Message, "s0") || !strings.Contains(se.Message, "retry") {
		t.Fatalf("shed message does not name the shard and the remedy: %q", se.Message)
	}
	for _, d := range shard0 {
		got, err := rc.Diameter(d)
		if err != nil {
			t.Fatalf("read of %s failed with the leader dead: %v", d, err)
		}
		want, err := revived.client().Diameter(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("diameter(%s) from the surviving replica: router %d, replica %d", d, got, want)
		}
	}
	getJSON(t, rts.URL+"/metrics", &rm)
	if rm.Shards[0].WriteSheds == 0 {
		t.Fatal("leader death produced no write shed in the ledger")
	}

	// Shard 0's leader is down, so the router reports degraded even
	// though the shard's replica still serves reads; a drain flips it
	// to 503 regardless.
	if code := getJSON(t, rts.URL+"/healthz", &rh); code != http.StatusOK || rh.Status != "degraded" || rh.ShardsReady != 1 || rh.FollowersReady != 2 {
		t.Fatalf("router healthz with a dead leader but live replica: code=%d %+v", code, rh)
	}
	rt.SetHealthy(false)
	if code := getJSON(t, rts.URL+"/healthz", &rh); code != http.StatusServiceUnavailable || rh.Status != "draining" {
		t.Fatalf("draining healthz: code=%d %+v", code, rh)
	}
	rt.SetHealthy(true)

	// --- Both metrics views agree on the qrouter_ namespace. ---

	resp, err := http.Get(rts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"qrouter_uptime_seconds",
		`qrouter_shard_writes_total{shard="s0"}`,
		`qrouter_shard_write_sheds_total{shard="s0"}`,
		`qrouter_shard_read_failovers_total{shard="s0"}`,
		`qrouter_peer_forwards_total{peer="` + leaders[0].url + `"}`,
		`qrouter_peer_ready{peer="` + revived.url + `"} 1`,
		`qrouter_peer_alive{peer="` + leaders[0].url + `"} 0`,
	} {
		if !strings.Contains(prom.String(), family) {
			t.Fatalf("prometheus view lacks %q:\n%s", family, prom.String())
		}
	}
	// A scraper's Accept header selects the same view without the query.
	req, _ := http.NewRequest(http.MethodGet, rts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom.Reset()
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") || !strings.Contains(prom.String(), "qrouter_uptime_seconds") {
		t.Fatalf("Accept: text/plain answered %q:\n%s", resp.Header.Get("Content-Type"), prom.String())
	}

	// --- Auto-promotion: after PromoteAfter failed sweeps the router
	// elects the in-sync follower, promotes it at epoch 1, and rewrites
	// the topology so shard-0 writes resume without any restart. ---

	// Budget: the supervisor needs PromoteAfter consecutive failed
	// sweeps plus one promote round-trip; triple it for slow machines.
	promoteBudget := 3 * time.Duration(promoteAfter+2) * probeEvery
	waitUntil(t, promoteBudget, "auto-promotion of shard 0's follower", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, rts.URL+"/v1/cluster", &info)
		return info.Epoch == 1 && info.Shards[0].Nodes[0].URL == revived.url
	})
	// The promoted daemon itself must agree: leader role, fenced epoch.
	var nh svc.HealthResponse
	getJSON(t, revived.url+"/healthz", &nh)
	if nh.Replication == nil || nh.Replication.Role != "leader" || nh.Replication.Epoch != 1 {
		t.Fatalf("promoted follower reports %+v, want leader at epoch 1", nh.Replication)
	}
	// Every shard has a ready leader again.
	if code := getJSON(t, rts.URL+"/healthz", &rh); code != http.StatusOK || rh.Status != "ok" || rh.ShardsReady != 2 {
		t.Fatalf("router healthz after promotion: code=%d %+v", code, rh)
	}

	// Writes resume: a re-upload of a shard-0 graph answers 200 through
	// the router, and fresh uploads land on the new leader.
	if resp, err := rc.Upload(graphs[shard0[0]]); err != nil || resp.Created {
		t.Fatalf("shard-0 re-upload after promotion: resp=%+v err=%v", resp, err)
	}
	var newDigest string
	for n := 100; ; n++ {
		if n > 200 {
			t.Fatal("ring never placed a post-promotion graph on shard 0")
		}
		g := graph.Cycle(n)
		resp, err := rc.Upload(g)
		if err != nil {
			t.Fatalf("write after auto-promotion: %v", err)
		}
		graphs[resp.Digest] = g
		if resp.Created && digestSet(t, revived.client())[resp.Digest] {
			newDigest = resp.Digest
			break
		}
	}
	// Epoch fencing is visible in the sequence space: records minted by
	// the epoch-1 leader start at EpochBase(1) = 1<<32.
	getJSON(t, revived.url+"/healthz", &nh)
	if nh.Replication.Seq < 1<<32 {
		t.Fatalf("post-promotion head %d is below the epoch-1 fence", nh.Replication.Seq)
	}
	getJSON(t, rts.URL+"/metrics", &rm)
	if rm.Promotions != 1 || rm.Epoch != 1 {
		t.Fatalf("promotion ledger: %d promotions at epoch %d, want 1 at 1", rm.Promotions, rm.Epoch)
	}

	// --- Revive the old leader: it boots still believing it leads at
	// epoch 0, the router demotes it, and it re-syncs to exact seq and
	// chain parity with the new leader — zero acknowledged writes lost. ---

	oldLeader := leaders[0].revive()
	waitUntil(t, 10*time.Second, "revived old leader demotion", func() bool {
		var h svc.HealthResponse
		getJSON(t, oldLeader.url+"/healthz", &h)
		return h.Replication != nil && h.Replication.Role == "follower" && h.Replication.Epoch == 1
	})
	newShard0 := digestSet(t, revived.client())
	waitUntil(t, 10*time.Second, "demoted leader catch-up", func() bool {
		return sameDigests(digestSet(t, oldLeader.client()), newShard0)
	})
	var newLH, oldLH svc.HealthResponse
	getJSON(t, revived.url+"/healthz", &newLH)
	waitUntil(t, 5*time.Second, "demoted leader seq+chain parity", func() bool {
		getJSON(t, oldLeader.url+"/healthz", &oldLH)
		return oldLH.Replication != nil &&
			oldLH.Replication.Seq == newLH.Replication.Seq &&
			oldLH.Replication.Chain == newLH.Replication.Chain
	})
	if oldLH.Replication.Chain == "" || oldLH.Replication.Chain == "0000000000000000" {
		t.Fatalf("parity chain is trivial: %q", oldLH.Replication.Chain)
	}

	// Zero acknowledged-write loss, cluster-wide: every digest the
	// router ever acknowledged is present on its owning shard, and every
	// shard-0 record now lives on both replicas.
	finalSets := []map[string]bool{newShard0, digestSet(t, leaders[1].client())}
	for d := range graphs {
		if !finalSets[0][d] && !finalSets[1][d] {
			t.Fatalf("acknowledged digest %s was lost by the self-healing ladder", d)
		}
	}
	if !sameDigests(digestSet(t, oldLeader.client()), newShard0) {
		t.Fatal("demoted leader's digest set diverged from the new leader's")
	}

	// Reads of the post-promotion graph answer through the router from
	// either replica.
	if _, err := rc.Diameter(newDigest); err != nil {
		t.Fatalf("reading the post-promotion graph via the router: %v", err)
	}

	// The demotion shows up in the ledger and the live descriptor keeps
	// the promoted leader first.
	getJSON(t, rts.URL+"/metrics", &rm)
	if rm.Demotions == 0 {
		t.Fatal("old-leader revival produced no demotion in the ledger")
	}
	var info cluster.ClusterInfo
	getJSON(t, rts.URL+"/v1/cluster", &info)
	if info.Epoch != 1 || info.Shards[0].Nodes[0].URL != revived.url || info.Shards[0].Nodes[0].Role != "leader" {
		t.Fatalf("live descriptor after the ladder: %+v", info.Shards[0])
	}
	resp, err = http.Get(rts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom.Reset()
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"qrouter_topology_epoch 1",
		"qrouter_promotions_total 1",
		"qrouter_demotions_total 1",
		"qrouter_last_promotion_ms",
	} {
		if !strings.Contains(prom.String(), family) {
			t.Fatalf("prometheus view lacks %q after the ladder:\n%s", family, prom.String())
		}
	}
}

// TestRouterValidation pins the router's own error surface — everything
// it rejects before any daemon is consulted (the topology points at a
// dead port on purpose).
func TestRouterValidation(t *testing.T) {
	topo, err := cluster.ParseTopology("http://127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e svc.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: non-JSON error body: %v", path, err)
		}
		return resp.StatusCode
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/graphs", "{"); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON upload: %d", code)
	}
	if code := post("/v1/graphs", "{}"); code != http.StatusBadRequest {
		t.Fatalf("upload with neither edgelist nor gen: %d", code)
	}
	if code := post("/v1/graphs", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("upload with unknown field: %d", code)
	}
	if code := post("/v1/batch", `{"digests":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	if code := post("/v1/batch", `{"digests":["zebra"]}`); code != http.StatusBadRequest {
		t.Fatalf("batch with a malformed digest: %d", code)
	}
	if code := post("/v1/batch", `{"digests":["0123456789abcdef"],"workers":2}`); code != http.StatusBadRequest {
		t.Fatalf("batch with the removed workers field: %d", code)
	}
	if code := get("/v1/graphs/zebra"); code != http.StatusBadRequest {
		t.Fatalf("read with a malformed digest: %d", code)
	}
	if code := get("/v1/replicate"); code != http.StatusNotFound {
		t.Fatalf("/v1/replicate through the router: %d", code)
	}
	if code := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d", code)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/graphs: %d", resp.StatusCode)
	}
	// A well-formed write against the dead topology sheds, not hangs:
	// the probe has never seen the leader, so the leader is !alive.
	if code := post("/v1/graphs", `{"edgelist":"n 2\n0 1 1\n"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("write into a dead topology: %d", code)
	}
}

// TestRouterUploadParity: the router decodes uploads with the daemon's
// own svc.DecodeUpload, so every body draws the same status and error
// text through a router as from a bare daemon, and on success the same
// digest. The bare daemon and the one behind the router share a config
// and see the bodies in the same order.
func TestRouterUploadParity(t *testing.T) {
	cfg := svc.Config{MaxNodes: 128, MaxEdges: 256, MaxBodyBytes: 1 << 16}
	bare, behind := startNode(t, cfg), startNode(t, cfg)
	topo, err := cluster.ParseTopology(behind.url)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: time.Hour,
		MaxNodes: cfg.MaxNodes, MaxEdges: cfg.MaxEdges, MaxBodyBytes: cfg.MaxBodyBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	g := graph.Grid(6, 7)
	text := graph.FormatEdgeList(g)
	jsonEdges, _ := json.Marshal(svc.UploadRequest{EdgeList: string(text)})
	corrupt := graph.FormatBinary(g)
	corrupt[len(corrupt)-1] ^= 0x40
	big := append([]byte(nil), text...)
	for len(big) <= 1<<16 {
		big = append(big, "# padding comment line\n"...)
	}
	const (
		bin  = "application/x-qcongest-graph"
		edge = "application/x-qcongest-edgelist"
		js   = "application/json"
	)
	type answer struct {
		code   int
		digest string
		err    string
	}
	post := func(base string, body []byte, ct string) answer {
		t.Helper()
		resp, err := http.Post(base+"/v1/graphs", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			svc.UploadResponse
			svc.ErrorResponse
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s (%s): undecodable answer: %v", base, ct, err)
		}
		return answer{resp.StatusCode, out.Digest, out.Error}
	}
	for _, tc := range []struct {
		name string
		body []byte
		ct   string
		code int
	}{
		{"binary", graph.FormatBinary(g), bin, http.StatusCreated},
		{"text", text, edge, http.StatusOK},
		{"json edgelist", jsonEdges, js, http.StatusOK},
		{"json gen", []byte(`{"gen":{"kind":"spineleaf","spines":2,"leaves":3,"hosts":4,"maxW":9,"seed":7}}`), js, http.StatusCreated},
		{"bad magic", []byte("garbage"), bin, http.StatusBadRequest},
		{"bad crc", corrupt, bin, http.StatusBadRequest},
		{"over limit binary header", graph.FormatBinary(graph.Path(500)), bin, http.StatusRequestEntityTooLarge},
		{"over limit text header", graph.FormatEdgeList(graph.Path(500)), edge, http.StatusRequestEntityTooLarge},
		{"over limit gen", []byte(`{"gen":{"kind":"path","n":500}}`), js, http.StatusRequestEntityTooLarge},
		{"unknown gen kind", []byte(`{"gen":{"kind":"moebius","n":4}}`), js, http.StatusBadRequest},
		{"empty json", []byte(`{}`), js, http.StatusBadRequest},
		{"both fields", []byte(`{"edgelist":"n 2\n0 1 1\n","gen":{"kind":"path","n":4}}`), js, http.StatusBadRequest},
		{"unknown field", []byte(`{"bogus":1}`), js, http.StatusBadRequest},
		{"truncated json", []byte(`{"edgelist":`), js, http.StatusBadRequest},
		{"text/plain", []byte("n 2\n0 1 1\n"), "text/plain", http.StatusBadRequest},
		{"over body cap", big, edge, http.StatusRequestEntityTooLarge},
	} {
		direct, routed := post(bare.url, tc.body, tc.ct), post(ts.URL, tc.body, tc.ct)
		if direct != routed {
			t.Fatalf("%s: daemon answered %+v, router %+v", tc.name, direct, routed)
		}
		if direct.code != tc.code || (tc.code < 300) != (direct.digest != "") {
			t.Fatalf("%s: answered %+v, want status %d", tc.name, direct, tc.code)
		}
	}
}

// TestRouterForwardsRequestID: the router resolves one X-Request-Id per
// request by the daemons' rule. A client's ID crosses the router hop, so
// the daemon answers under it, and the router's own answers and errors
// carry it too. A request without an ID gets one minted by the router,
// which the daemon echoes instead of minting its own.
func TestRouterForwardsRequestID(t *testing.T) {
	nd := startNode(t, svc.Config{})
	topo, err := cluster.ParseTopology(nd.url)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()
	waitUntil(t, 5*time.Second, "seed probe sweep", func() bool {
		var info cluster.ClusterInfo
		getJSON(t, ts.URL+"/v1/cluster", &info)
		return len(info.Shards) == 1 && len(info.Shards[0].Nodes) == 1 && info.Shards[0].Nodes[0].Ready
	})
	// A router over a dead port sheds every write.
	deadTopo, err := cluster.ParseTopology("http://127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	deadRt, err := cluster.NewRouter(cluster.Config{Topology: deadTopo, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer deadRt.Close()
	dead := httptest.NewServer(deadRt)
	defer dead.Close()

	// send returns the answer's status and X-Request-Id, after checking
	// that an error body echoes that ID.
	send := func(base, method, path, body, id string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if resp.StatusCode >= 400 {
			var e svc.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.RequestID != got {
				t.Fatalf("%s %s: error body %+v (%v) does not echo X-Request-Id %q", method, path, e, err, got)
			}
		}
		return resp.StatusCode, got
	}
	const edges = `{"edgelist":"n 3\n0 1 2\n1 2 5\n"}`
	g, err := graph.ParseEdgeList([]byte("n 3\n0 1 2\n1 2 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	diameter := fmt.Sprintf("/v1/graphs/%016x/diameter", g.Digest())
	for _, tc := range []struct {
		base, method, path, body, id string
		code                         int
	}{
		{ts.URL, http.MethodPost, "/v1/graphs", edges, "client-upload-0001", http.StatusCreated},
		{ts.URL, http.MethodGet, diameter, "", "client-read-0002", http.StatusOK},
		{ts.URL, http.MethodGet, "/healthz", "", "client-healthz-0003", http.StatusOK},
		{ts.URL, http.MethodGet, "/v1/cluster", "", "client-cluster-0004", http.StatusOK},
		{ts.URL, http.MethodGet, "/metrics", "", "client-metrics-0005", http.StatusOK},
		{ts.URL, http.MethodGet, "/nope", "", "client-missing-0006", http.StatusNotFound},
		{dead.URL, http.MethodPost, "/v1/graphs", edges, "client-shed-0007", http.StatusServiceUnavailable},
	} {
		code, got := send(tc.base, tc.method, tc.path, tc.body, tc.id)
		if code != tc.code || got != tc.id {
			t.Fatalf("%s %s: status %d under X-Request-Id %q, want %d under the client's %q",
				tc.method, tc.path, code, got, tc.code, tc.id)
		}
	}

	// Without a client ID, a forwarded read answers under the router's
	// boot prefix, not the daemon's: the daemon echoed the router's ID.
	bootOf := func(base string) string {
		_, id := send(base, http.MethodGet, "/healthz", "", "")
		boot, _, ok := strings.Cut(id, "-")
		if !ok {
			t.Fatalf("%s minted X-Request-Id %q, want <boot>-<sequence>", base, id)
		}
		return boot
	}
	routerBoot, daemonBoot := bootOf(ts.URL), bootOf(nd.url)
	if routerBoot == daemonBoot {
		t.Fatalf("router and daemon drew the same boot prefix %q", routerBoot)
	}
	if _, id := send(ts.URL, http.MethodGet, diameter, "", ""); !strings.HasPrefix(id, routerBoot+"-") {
		t.Fatalf("forwarded read without a client ID answered under %q, want the router's %s- prefix", id, routerBoot)
	}
}
