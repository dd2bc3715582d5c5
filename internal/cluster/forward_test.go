package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestForwardBoundsBackendAnswer: a backend answer of exactly the
// router's limit relays intact, and one streamed byte more becomes a
// 502 and a peer error, never a truncated relay under the backend's 200.
func TestForwardBoundsBackendAnswer(t *testing.T) {
	var size atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte{'x'}, 32<<10)
		for left := size.Load(); left > 0; left -= int64(len(chunk)) {
			if _, err := w.Write(chunk[:min(left, int64(len(chunk)))]); err != nil {
				return
			}
		}
	}))
	defer backend.Close()
	topo, err := ParseTopology(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Small graph caps keep the limit near its 1 MiB slack.
	rt, err := NewRouter(Config{Topology: topo, ProbeEvery: time.Hour, MaxNodes: 8, MaxEdges: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()
	limit, peer := rt.cfg.backendLimit(0), rt.state.Load().shards[0][0]

	get := func(n int64) (int, []byte) {
		size.Store(n)
		resp, err := http.Get(ts.URL + "/v1/graphs/0123456789abcdef?format=binary")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := get(limit); code != http.StatusOK || int64(len(body)) != limit {
		t.Fatalf("answer of exactly the limit: status %d, %d bytes, want 200 and %d", code, len(body), limit)
	}
	before := peer.errors.Load()
	code, body := get(limit + 1)
	var e struct{ Error string }
	if code != http.StatusBadGateway || json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Fatalf("answer over the limit: status %d, body %.80q, want a 502 JSON error", code, body)
	}
	if got := peer.errors.Load() - before; got != 1 {
		t.Fatalf("over-limit answer counted %d peer errors, want 1", got)
	}
}
