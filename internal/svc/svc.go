// Package svc is the serving layer: a long-running HTTP/JSON daemon
// (cmd/qcongestd) that owns a registry of immutable graphs addressed by
// graph.Digest() and answers diameter/radius/eccentricity, Lemma 3.2
// sketch, and batch APSP queries over the network, so consumers no
// longer need to link the library for every lookup.
//
// This package is infrastructure, not paper machinery: the paper's
// three-party Server model of Lemma 4.1 lives in internal/server, and
// the SketchCache this daemon serves from in internal/cache.
// The data flow is
//
//	registry (digest → immutable *graph.Graph)
//	  → cache.SketchCache (bounded LRU + single-flight, keyed by
//	    digest + the full Lemma 3.2 parameter tuple)
//	    → graph.DistWorkspace frontier kernel (the §3 distance builds)
//
// Because graphs are registered once and never mutated, a digest is a
// permanent name for a topology, which is what makes both cache layers
// (the sketch LRU and the per-graph exact-metric memo) safe without
// invalidation. Every numeric answer is computed by the same library
// code a direct caller would run, so responses are byte-identical to
// in-process results (the determinism contract of API.md).
//
// Admission control is a pair of bounded gates: cold work (sketch
// builds, batch sweeps, first-touch exact metrics, upload parsing and
// generation) competes for a small build gate, while warm reads go
// through a wide query gate — a burst of cold builds saturates the
// build gate and returns 503, it cannot starve warm traffic. See
// DESIGN.md §8 for the architecture chapter.
//
// With Config.DataDir set (and the Open constructor), the registry is
// durable: every committed graph is fsynced into the crash-safe store
// of internal/store before the upload is acknowledged, a reboot replays
// it with digest verification (corrupt records are quarantined, never
// served), and the K most-recently-queried graphs are optionally
// pre-warmed back into the metric memos and sketch cache. Recovery and
// warm-up progress surface through /healthz and /metrics. See DESIGN.md
// §9 for the durability chapter.
package svc

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcongest/internal/cache"
	"qcongest/internal/store"
)

// Config tunes the daemon. The zero value is runnable: every field has
// a default applied by New.
type Config struct {
	// CacheCapacity bounds the sketch LRU (default 64 skeletons).
	CacheCapacity int
	// BuildSlots bounds concurrently executing cold work: sketch
	// builds, batch sweeps, first-touch exact-metric computations, and
	// upload parsing/generation (default 2).
	BuildSlots int
	// BuildQueue bounds callers waiting for a build slot; beyond it the
	// daemon answers 503 immediately (default 4×BuildSlots).
	BuildQueue int
	// QuerySlots bounds concurrently executing warm reads (default 256).
	QuerySlots int
	// QueryQueue bounds callers waiting for a query slot (default
	// 4×QuerySlots).
	QueryQueue int
	// MaxGraphs bounds the registry; registering beyond it answers 507
	// (default 128).
	MaxGraphs int
	// MaxNodes and MaxEdges bound one registered graph (defaults 1<<17
	// nodes, 1<<21 edges).
	MaxNodes, MaxEdges int
	// MaxBatch bounds the number of jobs in one /v1/batch call
	// (default 64).
	MaxBatch int
	// MaxBatchNodes bounds one batch job's graph size (default 4096):
	// the APSP protocol keeps an n-length distance vector per node, so
	// a job costs Θ(n²) memory while it runs.
	MaxBatchNodes int
	// MaxBodyBytes bounds one request body (default 64 MiB).
	MaxBodyBytes int64
	// DataDir, when non-empty, makes the registry durable: graphs are
	// committed to a crash-safe on-disk store (internal/store) and
	// replayed — digest-verified — on the next Open over the same
	// directory. Empty keeps the PR 4 in-memory behavior. Only Open
	// honors this field; New always builds an in-memory server.
	DataDir string
	// WarmStart pre-warms the exact-metric memos and the sketch cache
	// for the K most-recently-queried recovered graphs after a
	// persistent boot (0 disables; ignored without DataDir).
	WarmStart int
	// SnapshotEvery is the store's automatic snapshot cadence in graph
	// appends (0 = store default 64, negative disables; ignored without
	// DataDir).
	SnapshotEvery int
	// RatePerKey, when > 0, enforces a per-API-key token bucket on
	// every /v1 endpoint: sustained RatePerKey requests/sec with
	// RateBurst depth, overflow answered 429 with Retry-After. Keys
	// come from the X-API-Key header (absent = the shared "anonymous"
	// bucket). 0 disables rate limiting.
	RatePerKey float64
	// RateBurst is the token-bucket depth (default ⌈2·RatePerKey⌉,
	// minimum 1; ignored when RatePerKey is 0).
	RateBurst int
	// TenantMaxGraphs, when > 0, caps the graphs one API key may
	// create; uploads beyond it answer 429. 0 disables the quota (the
	// global MaxGraphs bound always applies).
	TenantMaxGraphs int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (request ID, method, path, status, class, API key,
	// latency, bytes). nil disables request logging.
	AccessLog io.Writer
	// FollowURL, when non-empty, runs this daemon as a read-only
	// follower replica of the leader at that base URL: a background
	// loop tails the leader's committed graphs over /v1/replicate,
	// digest-verifying every record before it is applied (and fsyncing
	// it locally when DataDir is set). Followers reject uploads with
	// 403 and report replication lag through /healthz and /metrics.
	// Only Open honors this field.
	FollowURL string
	// MaxLagSeq is the follower readiness threshold: /healthz answers
	// 503 ("lagging") while the follower is more than this many
	// sequence steps behind the leader's last reported head (default
	// 1024; ignored without FollowURL).
	MaxLagSeq uint64
	// FollowPoll is the follower's idle/backoff re-poll interval
	// (default 250ms; the catch-up loop long-polls the leader, so this
	// only paces reconnects and error backoff).
	FollowPoll time.Duration
	// ClusterToken, when non-empty, authenticates the cluster control
	// plane: POST /v1/promote and /v1/demote require a matching
	// X-Cluster-Token header. Empty leaves them open (single-operator
	// dev clusters); production routers and daemons share one token.
	ClusterToken string
}

func (c Config) withDefaults() Config {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 64
	}
	if c.BuildSlots <= 0 {
		c.BuildSlots = 2
	}
	if c.BuildQueue <= 0 {
		c.BuildQueue = 4 * c.BuildSlots
	}
	if c.QuerySlots <= 0 {
		c.QuerySlots = 256
	}
	if c.QueryQueue <= 0 {
		c.QueryQueue = 4 * c.QuerySlots
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 128
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 17
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 21
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatchNodes <= 0 {
		c.MaxBatchNodes = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxLagSeq == 0 {
		c.MaxLagSeq = 1024
	}
	if c.FollowPoll <= 0 {
		c.FollowPoll = 250 * time.Millisecond
	}
	return c
}

// Server is the service state behind one daemon: the graph registry,
// the sketch cache, the admission gates, and the metrics ledger. It
// implements http.Handler; mount it directly on an http.Server (see
// cmd/qcongestd) or an httptest.Server (see the e2e suite).
type Server struct {
	cfg     Config
	reg     *registry
	cache   *cache.SketchCache
	metrics *metrics
	build   *gate
	query   *gate
	start   time.Time
	healthy atomic.Bool

	// Middleware state (middleware.go, ratelimit.go): request-ID
	// resolution, the optional access logger, and the per-API-key
	// limiter (nil when no per-key limit is configured).
	ids     *RequestIDs
	logger  *slog.Logger
	limiter *limiter

	// Replication state (nil = accepts writes). An atomic pointer
	// because promotion and demotion (promote.go) swap the role at
	// runtime while request handlers read it lock-free; roleMu
	// serializes the transitions themselves, and epoch mirrors the
	// store's persisted leadership generation for lock-free reads
	// (authoritative even on in-memory nodes, which persist nothing).
	// See follow.go and promote.go.
	repl   atomic.Pointer[replState]
	roleMu sync.Mutex
	epoch  atomic.Uint64

	// Durability state (nil store = in-memory server). See persist.go.
	store      *store.Store
	recovery   store.RecoveryStats
	warmTarget atomic.Int64
	warmDone   atomic.Int64
	warmHits   atomic.Int64
	warmStop   chan struct{}
	warmWG     sync.WaitGroup
}

// New returns a ready-to-serve in-memory Server with cfg's defaults
// applied. Use Open to honor Config.DataDir.
func New(cfg Config) *Server {
	return newServer(cfg.withDefaults())
}

func newServer(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(cfg.MaxGraphs),
		cache:   cache.NewSketchCache(cfg.CacheCapacity),
		metrics: newMetrics(),
		build:   newGate(cfg.BuildSlots, cfg.BuildQueue),
		query:   newGate(cfg.QuerySlots, cfg.QueryQueue),
		start:   time.Now(),
		ids:     NewRequestIDs(),
		limiter: newLimiter(cfg.RatePerKey, cfg.RateBurst, cfg.TenantMaxGraphs),
	}
	if cfg.AccessLog != nil {
		s.logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	s.healthy.Store(true)
	return s
}

// Cache exposes the sketch cache (the e2e suite asserts its Stats
// counters through this).
func (s *Server) Cache() *cache.SketchCache { return s.cache }

// SetHealthy flips the /healthz answer; cmd/qcongestd marks the daemon
// unhealthy at the start of graceful shutdown so load balancers drain
// it before the listener closes.
func (s *Server) SetHealthy(ok bool) { s.healthy.Store(ok) }

// ServeHTTP is the middleware entry point: every request — metered or
// not — is wrapped once with a response recorder, a correlation ID on
// the response header (set before any handler runs, so every error
// path carries it), and a body cap, then routed; the access log line,
// when enabled, is emitted after the handler returns.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rs := &responseState{ResponseWriter: w, status: http.StatusOK}
	id := s.ids.Resolve(r)
	rs.Header().Set(requestIDHeader, id)
	if r.Body != nil {
		// Capped before any parse: crossing MaxBodyBytes surfaces as a
		// 413 from the decoders, and no handler path reads an unbounded
		// body (the over-limit upload e2e pins this).
		r.Body = http.MaxBytesReader(rs, r.Body, s.cfg.MaxBodyBytes)
	}
	s.route(rs, r)
	if s.logger != nil {
		s.logRequest(r, rs, id, time.Since(start))
	}
}

// route dispatches the API surface documented in API.md.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		s.handleHealthz(w, r)
	case path == "/metrics":
		s.handleMetrics(w, r)
	case path == "/status":
		s.handleStatus(w, r)
	case path == "/v1/graphs":
		switch r.Method {
		case http.MethodGet:
			s.instrument(classQuery, s.handleListGraphs)(w, r)
		case http.MethodPost:
			s.instrument(classUpload, s.handleCreateGraph)(w, r)
		default:
			writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	case strings.HasPrefix(path, "/v1/graphs/"):
		s.routeGraph(w, r, strings.TrimPrefix(path, "/v1/graphs/"))
	case path == "/v1/batch":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		s.instrument(classBatch, s.handleBatch)(w, r)
	case path == "/v1/replicate":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		// Metered but never rate-limited: follower catch-up traffic
		// carries no API key, and a throttled replica is a stale replica.
		s.instrumentOpts(classReplicate, false, s.handleReplicate)(w, r)
	case path == "/v1/promote" || path == "/v1/demote":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		// Control-plane traffic is authenticated by token, not API key,
		// and never rate-limited: a throttled promotion is an outage.
		if path == "/v1/promote" {
			s.instrumentOpts(classControl, false, s.handlePromote)(w, r)
		} else {
			s.instrumentOpts(classControl, false, s.handleDemote)(w, r)
		}
	default:
		writeError(w, http.StatusNotFound, "no such route (see API.md)")
	}
}

// routeGraph dispatches /v1/graphs/{digest}[/{op}]. Digest resolution
// happens inside the instrumented handler so bad-digest traffic shows
// up in the class's 4xx ledger.
func (s *Server) routeGraph(w http.ResponseWriter, r *http.Request, rest string) {
	digestHex, op, _ := strings.Cut(rest, "/")
	class, method := classQuery, http.MethodGet
	switch op {
	case "", "diameter", "radius", "eccentricity":
	case "sketch":
		class, method = classSketch, http.MethodPost
	default:
		writeError(w, http.StatusNotFound, "unknown graph operation %q", op)
		return
	}
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, "use %s", method)
		return
	}
	s.instrument(class, func(w http.ResponseWriter, r *http.Request) {
		e, ok := s.lookup(w, digestHex)
		if !ok {
			return
		}
		switch op {
		case "":
			s.handleGraphInfo(w, r, e)
		case "sketch":
			s.handleSketch(w, r, e)
		default:
			s.handleExactMetric(w, r, e, op)
		}
	})(w, r)
}

// lookup resolves a digest path segment, writing the error response on
// failure.
func (s *Server) lookup(w http.ResponseWriter, digestHex string) (*entry, bool) {
	digest, err := ParseDigest(digestHex)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad digest %q: %v", digestHex, err)
		return nil, false
	}
	e, ok := s.reg.get(digest)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph with digest %s (upload it via POST /v1/graphs)", digestHex)
		return nil, false
	}
	return e, true
}
