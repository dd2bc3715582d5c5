package cluster_test

// Pins for the router bugfix sweep: the default forwarding client's
// timeout (a stalled backend must cost a bounded shed, not a pinned
// request), the synchronous seed probe sweep (the first request after
// NewRouter sees real verdicts), and probe connection reuse (a drained
// healthz body keeps the keep-alive connection alive).

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// healthzOnly serves a minimal daemon-shaped /healthz and delegates
// everything else to handle (nil = 404).
func healthzOnly(handle http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
			return
		}
		if handle != nil {
			handle(w, r)
			return
		}
		http.NotFound(w, r)
	}
}

// TestForwardTimeoutShedsStalledBackend pins satellite fix 1: the
// default client must carry a timeout. A backend that answers probes
// but sits on the upload forever used to pin the proxied request until
// the client gave up on its own; now the exchange dies at
// ForwardTimeout and the write sheds 503.
func TestForwardTimeoutShedsStalledBackend(t *testing.T) {
	stall := make(chan struct{})
	backend := httptest.NewServer(healthzOnly(func(w http.ResponseWriter, r *http.Request) {
		<-stall // black hole: never answers
	}))
	defer backend.Close()
	defer close(stall) // LIFO: unblock the handler before Close waits on it

	topo, err := cluster.ParseTopology(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Topology:       topo,
		ProbeEvery:     time.Hour, // only the seed sweep runs
		PromoteAfter:   -1,
		ForwardTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	started := time.Now()
	_, err = svc.NewClient(ts.URL).Upload(graph.Path(4))
	elapsed := time.Since(started)
	var se *svc.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("upload into a stalled backend answered %v, want a 503 shed", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("shed took %v; the forwarding client's timeout is not bounding the exchange", elapsed)
	}
}

// TestSeedSweepReadiness pins satellite fix 2: NewRouter must not
// return until the seed probe sweep settles, so the very first routed
// request already sees the cluster as ready instead of shedding
// against zero-valued probe state.
func TestSeedSweepReadiness(t *testing.T) {
	s, err := svc.Open(svc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	backend := httptest.NewServer(s)
	defer backend.Close()

	topo, err := cluster.ParseTopology(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long probe interval: if the write below succeeds, only the
	// synchronous seed sweep can have marked the leader ready.
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := svc.NewClient(ts.URL).Upload(graph.Star(5))
	if err != nil {
		t.Fatalf("first write after NewRouter shed: %v", err)
	}
	if !resp.Created {
		t.Fatalf("first write answered created=false: %+v", resp)
	}
}

// TestHealthzNeedsReadyLeaders pins the router's readiness rule: a
// shard counts as ready only when its leader is, so a ready follower
// beside a down leader reads "degraded", not "ok" — a client that waits
// for "ok" before writing must not be shed by the leader's shard.
func TestHealthzNeedsReadyLeaders(t *testing.T) {
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer leader.Close()
	follower := httptest.NewServer(healthzOnly(nil))
	defer follower.Close()

	topo, err := cluster.ParseTopology(leader.URL + ";" + follower.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: time.Hour, PromoteAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" || h.Shards != 1 || h.ShardsReady != 0 || h.FollowersReady != 1 {
		t.Fatalf("healthz with a down leader and a ready follower: code=%d %+v, want 200 degraded with 0 of 1 shards and 1 follower ready", resp.StatusCode, h)
	}
}

// TestProbeConnectionReuse pins satellite fix 3: probeOnce must drain
// the healthz body before closing it, or every probe abandons its
// keep-alive connection and re-handshakes. Many sweeps against one
// backend must cost O(1) TCP connections, not O(sweeps).
func TestProbeConnectionReuse(t *testing.T) {
	var newConns atomic.Int64
	backend := httptest.NewUnstartedServer(healthzOnly(nil))
	backend.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()

	topo, err := cluster.ParseTopology(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Topology:     topo,
		ProbeEvery:   10 * time.Millisecond,
		PromoteAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Wait until well over a dozen sweeps have run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m cluster.RouterMetrics
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if len(m.Peers) == 1 && m.Peers[0].Probes >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 20 probes: %+v", m.Peers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := newConns.Load(); n > 3 {
		t.Fatalf("20+ probes opened %d TCP connections; the probe is not reusing keep-alives", n)
	}
}
