package cluster

// The digest-routing reverse proxy. Uploads are decoded to learn the
// graph's digest (svc.DecodeUpload, the daemons' own decoder, so router
// and daemon can never disagree about identity or about a rejection),
// the ring maps the digest to a shard, and the request forwards to the
// shard leader — or is shed with 503 + Retry-After when the leader is
// down, because acknowledging a write no leader fsynced would break the
// 2xx-is-a-durability-receipt contract. Reads go to any in-sync replica
// of the owning shard, rotating for load spread, with per-request
// failover past dead or stale nodes; the determinism contract (same
// digest + params ⇒ byte-identical answers everywhere) is what makes
// any-replica reads sound. Listings fan out and merge; batches split by
// shard and reassemble in request order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcongest/internal/svc"
)

// Config parameterizes a Router.
type Config struct {
	// Topology is the boot shard layout (required, non-empty). It
	// becomes the epoch-0 live topology; promotion and Reload evolve it
	// from there.
	Topology Topology
	// ProbeEvery is the health-probe cadence (default 500ms).
	ProbeEvery time.Duration
	// PromoteAfter is how many consecutive probe sweeps a shard leader
	// must be unreachable before the router elects and promotes an
	// in-sync follower (default 3; negative disables auto-promotion).
	// The promotion budget is therefore about PromoteAfter×ProbeEvery
	// plus one promote round-trip.
	PromoteAfter int
	// ClusterToken is sent as X-Cluster-Token on /v1/promote and
	// /v1/demote calls; it must match the daemons' -cluster-token.
	// Empty sends no header (open dev clusters).
	ClusterToken string
	// MaxBodyBytes caps request bodies (default 64 MiB, matching the
	// daemons).
	MaxBodyBytes int64
	// MaxNodes / MaxEdges bound upload parsing at the router (defaults
	// match the daemons').
	MaxNodes, MaxEdges int
	// ForwardTimeout bounds one proxied backend exchange on the default
	// client (default 60s) — a hung daemon must cost a bounded wait,
	// never pin the request forever. Ignored when Client is set.
	ForwardTimeout time.Duration
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	if c.PromoteAfter == 0 {
		c.PromoteAfter = 3
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 17
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 21
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 60 * time.Second
	}
	return c
}

// shardStats is one shard's routing ledger.
type shardStats struct {
	writes        atomic.Int64
	writeSheds    atomic.Int64
	reads         atomic.Int64
	readFailovers atomic.Int64
	readFailures  atomic.Int64
	rr            atomic.Uint64 // read rotation cursor
}

// topoState is one immutable live-topology generation: the shard
// layout (leader-first node order), its ring, its peers, and the
// per-shard ledgers. Promotion, demotion adoption, and Reload build a
// successor state and swap the router's pointer; request handlers load
// the pointer once and work against a consistent view. Peer and stats
// objects are reused across generations (keyed by URL and shard name),
// so counters and probe evidence survive every rewrite.
type topoState struct {
	topo   Topology
	epoch  uint64
	ring   *ring
	peers  []*peer   // flat, topology order
	shards [][]*peer // by shard index, leader first
	stats  []*shardStats
}

// leaderOf returns the shard's designated leader (Nodes[0]).
func (st *topoState) leaderOf(shard int) *peer { return st.shards[shard][0] }

// buildState assembles a topoState from a layout, reusing prev's peer
// and stats objects where URL / shard name match.
func buildState(t Topology, epoch uint64, prev *topoState) *topoState {
	oldPeers := make(map[string]*peer)
	oldStats := make(map[string]*shardStats)
	if prev != nil {
		for _, p := range prev.peers {
			oldPeers[p.url] = p
		}
		for si, s := range prev.topo.Shards {
			oldStats[s.Name] = prev.stats[si]
		}
	}
	st := &topoState{topo: t, epoch: epoch, ring: buildRing(t)}
	for _, s := range t.Shards {
		var group []*peer
		for _, u := range s.Nodes {
			p := oldPeers[u]
			if p == nil {
				p = &peer{url: u}
			}
			st.peers = append(st.peers, p)
			group = append(group, p)
		}
		st.shards = append(st.shards, group)
		stats := oldStats[s.Name]
		if stats == nil {
			stats = &shardStats{}
		}
		st.stats = append(st.stats, stats)
	}
	return st
}

// Router is the cluster proxy; it implements http.Handler.
type Router struct {
	cfg     Config
	state   atomic.Pointer[topoState]
	topoMu  sync.Mutex // serializes state rewrites (supervisor, Reload)
	client  *http.Client
	ids     *svc.RequestIDs
	start   time.Time
	healthy atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup

	// Self-healing ledger (promote.go).
	promotions      atomic.Int64
	demotions       atomic.Int64
	adoptions       atomic.Int64
	promoteFails    atomic.Int64
	lastPromotionMs atomic.Int64 // wall time from election to 200, last promotion
}

// NewRouter builds a Router over the topology, runs the seed probe
// sweep to completion, and starts the health prober. Returning only
// after the seed sweep settles closes the boot readiness race: the
// first request the caller routes already sees real probe verdicts,
// not all-false zero values that would shed writes against a perfectly
// healthy cluster. The caller owns Close.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Topology.Shards) == 0 {
		return nil, fmt.Errorf("cluster: empty topology")
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		ids:    svc.NewRequestIDs(),
		start:  time.Now(),
		stop:   make(chan struct{}),
	}
	if rt.client == nil {
		// The default forwarding client must bound every exchange: one
		// hung backend would otherwise pin the proxied request (and the
		// daemon-side gate slot it holds) forever. The transport caps
		// idle pool size so steady probe + forward traffic reuses
		// connections instead of re-handshaking.
		rt.client = &http.Client{
			Timeout: cfg.ForwardTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	rt.state.Store(buildState(cfg.Topology, 0, nil))
	rt.healthy.Store(true)
	rt.probeAll(context.Background()) // seed verdicts before serving
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Reload swaps in a new shard layout (cmd/qrouter calls this on
// SIGHUP). Placement only moves for shards whose name changes — the
// ring hashes names, not node URLs. A shard whose live (possibly
// promoted) leader still appears in the new node list keeps that
// leader, so an operator adding or removing followers cannot
// accidentally un-promote a shard; name a different first node AND
// drop the live leader to force a leadership change.
func (rt *Router) Reload(t Topology) error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("cluster: empty topology")
	}
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	prev := rt.state.Load()
	liveLeaders := make(map[string]string, len(prev.topo.Shards))
	for si, s := range prev.topo.Shards {
		liveLeaders[s.Name] = prev.leaderOf(si).url
	}
	for i := range t.Shards {
		s := &t.Shards[i]
		if lead, ok := liveLeaders[s.Name]; ok {
			reorderLeader(s, lead)
		}
	}
	rt.state.Store(buildState(t, prev.epoch, prev))
	return nil
}

// reorderLeader moves url to Nodes[0] when present; no-op otherwise.
func reorderLeader(s *Shard, url string) {
	for i, n := range s.Nodes {
		if n == url && i != 0 {
			nodes := append([]string{url}, append(append([]string(nil), s.Nodes[:i]...), s.Nodes[i+1:]...)...)
			s.Nodes = nodes
			return
		}
	}
}

// SetHealthy flips the router's own /healthz between serving and
// draining; cmd/qrouter uses it for graceful shutdown.
func (rt *Router) SetHealthy(ok bool) { rt.healthy.Store(ok) }

// Close stops the health prober. In-flight proxied requests finish on
// their own contexts.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, svc.ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-Id"),
	})
}

// ServeHTTP resolves the request's correlation ID by the daemons' rule
// and sets it on the response before routing, so the router's own
// answers carry it too. The resolved ID also replaces the inbound
// header, so every backend attempt, failovers included, forwards it.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := rt.ids.Resolve(r)
	r.Header.Set("X-Request-Id", id)
	w.Header().Set("X-Request-Id", id)
	path := r.URL.Path
	switch {
	case path == "/healthz":
		rt.handleHealthz(w, r)
	case path == "/metrics":
		rt.handleMetrics(w, r)
	case path == "/v1/cluster":
		rt.handleCluster(w, r)
	case path == "/v1/replicate":
		// Replication is daemon-to-daemon traffic inside a shard; the
		// router is not a replication source and must not pretend to be.
		writeError(w, http.StatusNotFound, "/v1/replicate is not proxied; followers talk to their shard leader directly")
	case path == "/v1/graphs":
		switch r.Method {
		case http.MethodGet:
			rt.handleList(w, r)
		case http.MethodPost:
			rt.handleUpload(w, r)
		default:
			writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	case strings.HasPrefix(path, "/v1/graphs/"):
		rt.handleGraphRead(w, r)
	case path == "/v1/batch":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		rt.handleBatch(w, r)
	default:
		writeError(w, http.StatusNotFound, "unknown path %s", path)
	}
}

// readBody buffers the request body under the configured cap. Buffering
// is what makes failover possible: a half-streamed body cannot be
// replayed against the next replica.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", rt.cfg.MaxBodyBytes)
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// proxied is one fully buffered backend answer — buffered so a 5xx or
// transport failure can fail over without having leaked half a response
// to the client.
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// forward sends one request to one daemon and buffers the answer. The
// request's X-Request-Id goes along, so the daemon logs and echoes the
// router's ID instead of minting its own.
func (rt *Router) forward(ctx context.Context, p *peer, method, uri string, hdr http.Header, body []byte) (*proxied, error) {
	p.forwards.Add(1)
	req, err := http.NewRequestWithContext(ctx, method, p.url+uri, bytes.NewReader(body))
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", "X-API-Key", "X-Request-Id"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	limit := rt.cfg.backendLimit(len(body))
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	if int64(len(b)) > limit {
		// Never relay a truncated body under the backend's status: the
		// oversized answer is a peer error, and the client gets a 502.
		eb, _ := json.Marshal(svc.ErrorResponse{
			Error:     fmt.Sprintf("node %s answered more than %d bytes", p.url, limit),
			RequestID: hdr.Get("X-Request-Id"),
		})
		resp.StatusCode, resp.Header, b = http.StatusBadGateway, http.Header{"Content-Type": {"application/json"}}, eb
	}
	if resp.StatusCode >= 500 {
		p.errors.Add(1)
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// backendLimit bounds one buffered backend answer to a request whose
// body is reqBody bytes long. It is sized from the caps the router
// shares with its daemons, so no answer a daemon within them can give
// is cut:
//   - A graph export is largest as the text edge list: per edge two
//     node IDs below MaxNodes, an int64 weight of at most 19 digits,
//     two spaces and a newline. At the defaults that is 6+6+19+3 = 34
//     bytes × 2^21 edges = 68 MiB.
//   - A sketch answer holds one {"v":V,"num":N} entry per requested
//     vertex: 33 bytes plus V's digits, with the separating comma and a
//     19-digit numerator. The request names V in at least V's digits
//     plus a comma, so the answer is at most 17 bytes per request byte
//     (and the request itself is capped at MaxBodyBytes).
//   - Everything else (info, metrics, listings, batch results, errors)
//     is a few hundred bytes per graph or job, covered by the export
//     term and 1 MiB of slack for headers and envelopes.
func (c Config) backendLimit(reqBody int) int64 {
	line := int64(2*len(strconv.Itoa(c.MaxNodes)) + 19 + 3)
	return line*int64(c.MaxEdges) + 17*int64(reqBody) + 1<<20
}

// writeProxied relays a buffered backend answer to the client.
func (rt *Router) writeProxied(w http.ResponseWriter, resp *proxied) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-Id"} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// readCandidates orders a shard's nodes for one read: ready nodes
// first, rotated by the shard's cursor so load spreads across replicas,
// then not-ready-but-configured nodes as a last resort (a lagging
// replica beats a 503 when it is all that's left — determinism makes
// its answers correct for every graph it holds).
func readCandidates(st *topoState, shard int) []*peer {
	peers := st.shards[shard]
	start := int(st.stats[shard].rr.Add(1) % uint64(len(peers)))
	ready := make([]*peer, 0, len(peers))
	var fallback []*peer
	for i := range peers {
		p := peers[(start+i)%len(peers)]
		if p.ready.Load() {
			ready = append(ready, p)
		} else {
			fallback = append(fallback, p)
		}
	}
	return append(ready, fallback...)
}

// tryShard runs one read against a shard with failover: transport
// errors and 5xx answers rotate to the next candidate, and a 404
// rotates too (a lagging replica legitimately lacks graphs its leader
// holds — only a whole-shard 404 is a real miss). Returns the first
// conclusive answer, the last inconclusive one, or an error when no
// node was reachable at all.
func (rt *Router) tryShard(ctx context.Context, st *topoState, shard int, method, uri string, hdr http.Header, body []byte) (*proxied, error) {
	stats := st.stats[shard]
	stats.reads.Add(1)
	var last *proxied
	first := true
	for _, p := range readCandidates(st, shard) {
		if !first {
			stats.readFailovers.Add(1)
		}
		first = false
		resp, err := rt.forward(ctx, p, method, uri, hdr, body)
		if err != nil {
			continue
		}
		if resp.status >= 500 || resp.status == http.StatusNotFound {
			last = resp
			continue
		}
		return resp, nil
	}
	if last != nil {
		if last.status >= 500 {
			stats.readFailures.Add(1)
		}
		return last, nil
	}
	stats.readFailures.Add(1)
	return nil, fmt.Errorf("no node of shard %s is reachable", st.topo.Shards[shard].Name)
}

// handleUpload routes a write: learn the digest, find the shard,
// forward to its leader or shed.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	g, _, serr := svc.DecodeUpload(r.Header.Get("Content-Type"), bytes.NewReader(body), int64(len(body)),
		svc.UploadLimits{MaxNodes: rt.cfg.MaxNodes, MaxEdges: rt.cfg.MaxEdges, MaxBodyBytes: rt.cfg.MaxBodyBytes})
	if serr != nil {
		writeError(w, serr.Code, "%s", serr.Message)
		return
	}
	st := rt.state.Load()
	shard := st.ring.shardFor(g.Digest())
	stats := st.stats[shard]
	leader := st.leaderOf(shard)
	shed := func(reason string) {
		stats.writeSheds.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"shard %s leader %s is down (%s); write shed, not accepted — retry",
			st.topo.Shards[shard].Name, leader.url, reason)
	}
	// Sheds are deliberate: a write acknowledged by anything except the
	// leader's own fsync path would not be a durability receipt.
	if !leader.ready.Load() && !leader.alive.Load() {
		shed("probe reports unreachable")
		return
	}
	stats.writes.Add(1)
	resp, err := rt.forward(r.Context(), leader, http.MethodPost, "/v1/graphs"+querySuffix(r), r.Header, body)
	if err != nil {
		stats.writes.Add(-1)
		shed(err.Error())
		return
	}
	rt.writeProxied(w, resp)
}

func querySuffix(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
}

// handleGraphRead routes every /v1/graphs/{digest}[...] request —
// info, download, exact metrics, sketches — to the owning shard.
func (rt *Router) handleGraphRead(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	digestStr, _, _ := strings.Cut(rest, "/")
	digest, err := svc.ParseDigest(digestStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	st := rt.state.Load()
	resp, err := rt.tryShard(r.Context(), st, st.ring.shardFor(digest), r.Method, r.URL.RequestURI(), r.Header, body)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	rt.writeProxied(w, resp)
}

// handleList fans GET /v1/graphs across every shard and merges. A shard
// that cannot answer fails the listing loudly — a silently partial
// listing would read as deleted graphs.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	var merged []svc.GraphInfo
	st := rt.state.Load()
	for shard := range st.shards {
		resp, err := rt.tryShard(r.Context(), st, shard, http.MethodGet, "/v1/graphs", r.Header, nil)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "listing: %v", err)
			return
		}
		if resp.status != http.StatusOK {
			rt.writeProxied(w, resp)
			return
		}
		var page svc.GraphListResponse
		if err := json.Unmarshal(resp.body, &page); err != nil {
			writeError(w, http.StatusBadGateway, "shard %s sent an undecodable listing: %v", st.topo.Shards[shard].Name, err)
			return
		}
		merged = append(merged, page.Graphs...)
	}
	// Registration order is per-shard and meaningless across shards;
	// digest order is the deterministic merge.
	sort.Slice(merged, func(i, j int) bool { return merged[i].Digest < merged[j].Digest })
	writeJSON(w, http.StatusOK, svc.GraphListResponse{Graphs: merged})
}

// handleBatch splits a batch by owning shard, sub-batches each, and
// reassembles results in the original request order.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req svc.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Digests) == 0 {
		writeError(w, http.StatusBadRequest, "empty digest list")
		return
	}
	type slot struct {
		digests []string
		idx     []int
	}
	st := rt.state.Load()
	groups := make(map[int]*slot)
	for i, ds := range req.Digests {
		d, err := svc.ParseDigest(ds)
		if err != nil {
			writeError(w, http.StatusBadRequest, "digest %d: %v", i, err)
			return
		}
		shard := st.ring.shardFor(d)
		g := groups[shard]
		if g == nil {
			g = &slot{}
			groups[shard] = g
		}
		g.digests = append(g.digests, ds)
		g.idx = append(g.idx, i)
	}
	results := make([]svc.BatchEntry, len(req.Digests))
	for shard, g := range groups {
		sub, err := json.Marshal(svc.BatchRequest{Digests: g.digests, Parallelism: req.Parallelism})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		hdr := r.Header.Clone()
		hdr.Set("Content-Type", "application/json")
		resp, err := rt.tryShard(r.Context(), st, shard, http.MethodPost, "/v1/batch", hdr, sub)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "batch: %v", err)
			return
		}
		if resp.status != http.StatusOK {
			rt.writeProxied(w, resp)
			return
		}
		var page svc.BatchResponse
		if err := json.Unmarshal(resp.body, &page); err != nil || len(page.Results) != len(g.digests) {
			writeError(w, http.StatusBadGateway, "shard %s sent %d batch results for %d digests (%v)",
				st.topo.Shards[shard].Name, len(page.Results), len(g.digests), err)
			return
		}
		for j, res := range page.Results {
			results[g.idx[j]] = res
		}
	}
	writeJSON(w, http.StatusOK, svc.BatchResponse{Results: results})
}

// handleCluster serves the live topology descriptor cluster-aware
// clients use to find every replica (qload's parity checks read it).
// Leader-first node order reflects promotions, Epoch identifies the
// leadership generation, and the per-node Epoch/Seq/Chain are the
// router's last probe observations — evidence, not gospel.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := rt.state.Load()
	info := ClusterInfo{Epoch: st.epoch}
	for si, s := range st.topo.Shards {
		si2 := ShardInfo{Name: s.Name, Leader: s.Leader()}
		for ni, p := range st.shards[si] {
			role := "follower"
			if ni == 0 {
				role = "leader"
			}
			si2.Nodes = append(si2.Nodes, NodeInfo{
				URL:   p.url,
				Role:  role,
				Ready: p.ready.Load(),
				Alive: p.alive.Load(),
				Epoch: p.repEpoch.Load(),
				Seq:   p.repSeq.Load(),
				Chain: fmt.Sprintf("%016x", p.repChain.Load()),
			})
		}
		info.Shards = append(info.Shards, si2)
	}
	writeJSON(w, http.StatusOK, info)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := rt.state.Load()
	h := RouterHealth{
		Status:        "ok",
		Shards:        len(st.shards),
		Epoch:         st.epoch,
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for shard, nodes := range st.shards {
		if st.leaderOf(shard).ready.Load() {
			h.ShardsReady++
		}
		for _, p := range nodes[1:] {
			if p.ready.Load() {
				h.FollowersReady++
			}
		}
	}
	code := http.StatusOK
	if h.ShardsReady < h.Shards {
		h.Status = "degraded" // still 200: the router itself is serving
	}
	if !rt.healthy.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
