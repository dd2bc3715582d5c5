package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qcongest/internal/baseline"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/prom"
	"qcongest/internal/store"
)

// maxEpsT bounds the client-supplied inverse rounding parameter: with
// T <= 2^20 and l <= 4n <= 2^22 the denominator 2·T·l stays below 2^43,
// leaving int64 headroom for every numerator sum.
const maxEpsT = 1 << 20

// instrument wraps a handler with the class's in-flight gauge and
// latency/status ledger, plus the per-API-key rate-limit layer — the
// bucket check runs inside the ledger so 429s show up in the class's
// 4xx counts and latency histogram like every other rejection.
func (s *Server) instrument(class string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumentOpts(class, true, h)
}

// instrumentOpts is instrument with the rate limiter made optional:
// /v1/replicate is metered but never limited, because follower catch-up
// traffic carries no API key and throttling it only manufactures lag.
func (s *Server) instrumentOpts(class string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	c := s.metrics.class(class)
	return func(w http.ResponseWriter, r *http.Request) {
		rec, ok := w.(*responseState)
		if !ok {
			// ServeHTTP always wraps; this is the direct-mount fallback.
			rec = &responseState{ResponseWriter: w, status: http.StatusOK}
		}
		rec.class = class
		c.inFlight.Add(1)
		start := time.Now()
		// Deferred so a panicking handler (net/http recovers it) cannot
		// wedge the in-flight gauge.
		defer func() {
			c.inFlight.Add(-1)
			c.observe(time.Since(start), rec.status)
		}()
		if limited && s.limiter != nil {
			if retry, allowed := s.limiter.allow(apiKeyOf(r)); !allowed {
				rec.Header().Set("Retry-After", strconv.Itoa(retry))
				writeError(rec, http.StatusTooManyRequests,
					"rate limit exceeded for this API key, retry in %ds", retry)
				return
			}
		}
		h(rec, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	// The middleware set the correlation header before any handler ran,
	// so every error body can echo it for log correlation.
	writeJSON(w, code, ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(requestIDHeader),
	})
}

// decodeBody strictly decodes a JSON request body into v, answering
// the request itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeJSON(r.Body, v); err != nil {
		writeError(w, err.Code, "%s", err.Message)
		return false
	}
	return true
}

// decodeJSON strictly decodes one JSON body into v (unknown fields are
// errors). The body was already capped at cfg.MaxBodyBytes by the
// middleware (ServeHTTP); crossing the cap is the documented 413, not a
// generic 400.
func decodeJSON(body io.Reader, v any) *StatusError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return bodyTooLarge(tooBig)
		}
		return &StatusError{Code: http.StatusBadRequest, Message: "bad request body: " + err.Error()}
	}
	return nil
}

// bodyTooLarge is the 413 for a body past the middleware's cap.
func bodyTooLarge(err *http.MaxBytesError) *StatusError {
	return &StatusError{Code: http.StatusRequestEntityTooLarge,
		Message: fmt.Sprintf("request body exceeds the %d-byte limit", err.Limit)}
}

// admit acquires the given gate for the request, answering 503 on
// saturation (or client abandonment) itself. A true return must be
// paired with g.leave().
func admit(w http.ResponseWriter, ctx context.Context, g *gate) bool {
	if err := g.enter(ctx); err != nil {
		if errors.Is(err, errSaturated) {
			writeError(w, http.StatusServiceUnavailable, "server at capacity, retry later")
		} else {
			writeError(w, http.StatusServiceUnavailable, "request abandoned while queued: %v", err)
		}
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := HealthResponse{
		Status:        "ok",
		Graphs:        s.reg.len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.store != nil {
		resp.Store = &StoreHealth{
			RecoveredGraphs:    s.recovery.SnapshotGraphs + s.recovery.LogGraphs,
			QuarantinedRecords: s.recovery.Quarantined,
			ReplayMs:           float64(s.recovery.Replay.Microseconds()) / 1000,
			WarmupTarget:       s.warmTarget.Load(),
			WarmupDone:         s.warmDone.Load(),
		}
	}
	code := http.StatusOK
	resp.Replication = s.replicationStatus()
	if rp := resp.Replication; rp != nil && rp.SeqDelta > rp.MaxLagSeq && rp.MaxLagSeq > 0 {
		// A follower too far behind its leader must fail readiness: its
		// answers are correct (determinism is per-digest) but its graph
		// set is stale, and the router's any-replica reads depend on
		// lagging replicas taking themselves out of rotation.
		resp.Status = "lagging"
		code = http.StatusServiceUnavailable
	}
	if !s.healthy.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// handleMetrics serves both metrics views by content negotiation: the
// Prometheus exposition format for scrapers (Accept: text/plain or
// application/openmetrics-text, or ?format=prometheus) and the JSON
// snapshot for everything else — the PR 4 default, so existing typed
// clients keep decoding.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if prom.WantsText(r) {
		s.writePromText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	if !admit(w, r.Context(), s.query) {
		return
	}
	defer s.query.leave()
	writeJSON(w, http.StatusOK, GraphListResponse{Graphs: s.reg.list()})
}

// Raw graph media types, negotiated on POST /v1/graphs by Content-Type
// and on GET /v1/graphs/{digest} by Accept (or ?format=). The JSON
// wrapper stays the default on both sides for compatibility.
const (
	ctBinaryGraph = "application/x-qcongest-graph"
	ctEdgeList    = "application/x-qcongest-edgelist"
)

// mediaType extracts the bare media type from a Content-Type header
// value, dropping parameters like charset.
func mediaType(v string) string {
	if v == "" {
		return ""
	}
	mt, _, err := mime.ParseMediaType(v)
	if err != nil {
		return strings.ToLower(strings.TrimSpace(v))
	}
	return mt
}

// downloadFormat resolves the representation for a graph download:
// an explicit ?format= wins (mirroring /metrics), then the Accept
// header, then the JSON info document the PR 4 API served.
func downloadFormat(r *http.Request) string {
	switch r.URL.Query().Get("format") {
	case "binary":
		return "binary"
	case "edgelist", "text":
		return "edgelist"
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, ctBinaryGraph):
		return "binary"
	case strings.Contains(accept, ctEdgeList):
		return "edgelist"
	}
	return "json"
}

// handleGraphInfo answers GET /v1/graphs/{digest}: the JSON info
// document by default, or — negotiated by Accept/?format= — the graph
// body itself in either wire codec, so a client (or a future replica)
// can fetch exactly the bytes it would re-upload.
func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request, e *entry) {
	var body []byte
	var ct string
	switch downloadFormat(r) {
	case "binary":
		body, ct = graph.FormatBinary(e.g), ctBinaryGraph
	case "edgelist":
		body, ct = graph.FormatEdgeListVersioned(e.g), ctEdgeList
	default:
		writeJSON(w, http.StatusOK, e.info)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	// Followers are read-only: every graph arrives over the replication
	// stream, and accepting a direct upload here would fork the replica
	// set (the leader would never ship this digest, so no other replica
	// converges to it). 403, not 503 — retrying against this node can
	// never succeed; the error names where writes go.
	if rp := s.repl.Load(); rp != nil {
		writeError(w, http.StatusForbidden,
			"this node is a read-only follower; send writes to the leader at %s", rp.leader)
		return
	}
	// Decoding and generation are cold work: admit the build gate before
	// touching the body so an upload burst is bounded at BuildSlots
	// (the limits bound one request's allocation; the gate bounds how
	// many run at once).
	if !admit(w, r.Context(), s.build) {
		return
	}
	defer s.build.leave()
	g, spec, err := DecodeUpload(r.Header.Get("Content-Type"), r.Body, r.ContentLength,
		UploadLimits{MaxNodes: s.cfg.MaxNodes, MaxEdges: s.cfg.MaxEdges, MaxBodyBytes: s.cfg.MaxBodyBytes})
	if err != nil {
		writeError(w, err.Code, "%s", err.Message)
		return
	}
	s.finishCreateGraph(w, r, apiKeyOf(r), g, spec)
}

// UploadLimits are the caps DecodeUpload enforces on one upload. The
// daemon and the router fill them from their own configs.
type UploadLimits struct {
	// MaxNodes and MaxEdges bound the decoded graph; a codec header or
	// generator spec beyond them is refused before allocation.
	MaxNodes, MaxEdges int
	// MaxBodyBytes is the body cap the caller enforces on the reader.
	MaxBodyBytes int64
}

// DecodeUpload turns one POST /v1/graphs body into a graph. The daemon
// and the router both call it, so they agree on every upload's digest,
// status and error text. The Content-Type picks the decoder:
//   - application/x-qcongest-graph: the binary codec;
//   - application/x-qcongest-edgelist: the text codec, streamed;
//   - anything else, none included: the strict JSON wrapper
//     (UploadRequest) with exactly one of an edge list and a generator
//     spec.
//
// The codecs enforce the node/edge limits from their header, and a spec
// is size-checked, before adjacency is allocated. size is the declared
// body length (-1 when unknown). The spec is returned for generated
// graphs and is nil for edge lists. A failure carries the status the
// daemon answers: 413 past the body cap or a graph limit, 400
// otherwise.
func DecodeUpload(contentType string, body io.Reader, size int64, lim UploadLimits) (*graph.Graph, *GenSpec, *StatusError) {
	var g *graph.Graph
	var spec *GenSpec
	var err error
	switch mediaType(contentType) {
	case ctBinaryGraph:
		if size > 0 && size <= lim.MaxBodyBytes {
			// The declared length is within the body cap, so read into
			// one exact-size buffer instead of letting the streaming
			// decoder's buffer grow by doubling — at a million edges the
			// saved reallocation copies are a measurable slice of the
			// ingest budget.
			buf := make([]byte, size)
			if _, err = io.ReadFull(body, buf); err == nil {
				g, err = graph.ParseBinaryLimits(buf, lim.MaxNodes, lim.MaxEdges)
			}
		} else {
			g, err = graph.DecodeBinary(body, lim.MaxNodes, lim.MaxEdges)
		}
	case ctEdgeList:
		g, err = graph.DecodeEdgeList(body, lim.MaxNodes, lim.MaxEdges)
	default:
		var req UploadRequest
		if serr := decodeJSON(body, &req); serr != nil {
			return nil, nil, serr
		}
		switch {
		case (req.EdgeList == "") == (req.Gen == nil):
			return nil, nil, &StatusError{Code: http.StatusBadRequest, Message: `set exactly one of "edgelist" and "gen"`}
		case req.Gen != nil:
			if err := checkGenSize(req.Gen, lim.MaxNodes, lim.MaxEdges); err != nil {
				return nil, nil, &StatusError{Code: http.StatusRequestEntityTooLarge, Message: err.Error()}
			}
			g, err = generate(req.Gen)
			spec = req.Gen
		default:
			g, err = graph.ParseEdgeListLimits([]byte(req.EdgeList), lim.MaxNodes, lim.MaxEdges)
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			return nil, nil, bodyTooLarge(tooBig)
		case strings.Contains(err.Error(), "exceeds limit"):
			return nil, nil, &StatusError{Code: http.StatusRequestEntityTooLarge, Message: err.Error()}
		}
		return nil, nil, &StatusError{Code: http.StatusBadRequest, Message: err.Error()}
	}
	return g, spec, nil
}

// finishCreateGraph is the codec-independent back half of an upload:
// post-parse limit enforcement, tenant quota, registration, durable
// persistence, and the response. Callers hold the build gate.
func (s *Server) finishCreateGraph(w http.ResponseWriter, r *http.Request, key string, g *graph.Graph, genSpec *GenSpec) {
	if g.N() > s.cfg.MaxNodes || g.M() > s.cfg.MaxEdges {
		writeError(w, http.StatusRequestEntityTooLarge,
			"graph n=%d m=%d exceeds limits (n <= %d, m <= %d)", g.N(), g.M(), s.cfg.MaxNodes, s.cfg.MaxEdges)
		return
	}
	// The tenant quota caps *created* graphs, so it is enforced at the
	// point where creation is decided: a re-upload of an already
	// registered digest stays idempotent even for an at-quota key.
	// (Advisory against concurrent creates — see limiter.graphQuotaLeft.)
	if s.limiter != nil && !s.limiter.graphQuotaLeft(key) {
		if _, ok := s.reg.get(g.Digest()); !ok {
			writeError(w, http.StatusTooManyRequests,
				"API key %q reached its graph quota (%d created graphs)", key, s.cfg.TenantMaxGraphs)
			return
		}
	}
	e, created, err := s.reg.put(g)
	if err != nil {
		writeError(w, http.StatusInsufficientStorage, "%v (capacity %d)", err, s.cfg.MaxGraphs)
		return
	}
	if created {
		// Durably commit before acknowledging (in-memory servers no-op):
		// a 2xx upload must survive a crash at any later byte boundary.
		var gen []byte
		if genSpec != nil {
			gen, _ = json.Marshal(genSpec)
		}
		if err := s.persistGraph(e, gen); err != nil {
			writeError(w, http.StatusInternalServerError, "persisting graph: %v", err)
			return
		}
	} else if err := s.awaitDurable(r.Context(), e); err != nil {
		// We raced the creating request and its durable append failed
		// (the entry was rolled back): this acknowledgment would be a
		// durability receipt for nothing.
		writeError(w, http.StatusInternalServerError, "persisting graph: %v", err)
		return
	}
	if created && s.limiter != nil {
		s.limiter.noteGraph(key)
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, UploadResponse{GraphInfo: e.info, Created: created})
}

// checkGenSize predicts a generator spec's output size and rejects
// anything beyond the graph limits before allocation. Negative or
// unknown-kind parameters fall through — generate reports those with
// the generator's own message.
func checkGenSize(spec *GenSpec, maxNodes, maxEdges int) error {
	maxN, maxM := int64(maxNodes), int64(maxEdges)
	// Bound every raw factor first so the size formulas below cannot
	// overflow (products of two factors each <= 2^30 fit int64 easily).
	lim := maxN
	if maxM > lim {
		lim = maxM
	}
	if lim > 1<<30 {
		lim = 1 << 30
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"n", spec.N}, {"m", spec.M}, {"rows", spec.Rows}, {"cols", spec.Cols},
		{"avgDeg", spec.AvgDeg}, {"k", spec.K}, {"bridgeLen", spec.BridgeLen},
		{"spines", spec.Spines}, {"leaves", spec.Leaves}, {"hosts", spec.Hosts},
	} {
		if int64(p.v) > lim {
			return fmt.Errorf("gen %s=%d exceeds the graph limits (n <= %d, m <= %d)", p.name, p.v, maxN, maxM)
		}
	}
	var n, m int64
	switch spec.Kind {
	case "path", "cycle", "star":
		n, m = int64(spec.N), int64(spec.N)
	case "complete":
		n = int64(spec.N)
		m = n * (n - 1) / 2
	case "grid":
		n = int64(spec.Rows) * int64(spec.Cols)
		m = 2 * n
	case "random":
		n, m = int64(spec.N), int64(spec.M)
	case "lowdiameter":
		n = int64(spec.N)
		deg := int64(spec.AvgDeg)
		if deg < 2 {
			deg = 2
		}
		m = n * deg / 2
	case "diametercontrolled":
		n, m = int64(spec.N), 2*int64(spec.N)
	case "barbell":
		k := int64(spec.K)
		n = 2*k + int64(spec.BridgeLen)
		m = k*(k-1) + int64(spec.BridgeLen)
	case "spineleaf":
		leaves, hosts := int64(spec.Leaves), int64(spec.Hosts)
		n = int64(spec.Spines) + leaves + leaves*hosts
		m = int64(spec.Spines)*leaves + leaves*hosts
	default:
		return nil
	}
	if n > maxN || m > maxM {
		return fmt.Errorf("generated graph would have n=%d m=%d, exceeding limits (n <= %d, m <= %d)", n, m, maxN, maxM)
	}
	return nil
}

// generate runs a GenSpec through the graph generators. The generators
// report invalid parameters by panicking; that is recovered into a
// client error rather than taking the daemon down.
func generate(spec *GenSpec) (g *graph.Graph, err error) {
	defer func() {
		if p := recover(); p != nil {
			g, err = nil, fmt.Errorf("%v", p)
		}
	}()
	rng := rand.New(rand.NewSource(spec.Seed))
	switch spec.Kind {
	case "path":
		g = graph.Path(spec.N)
	case "cycle":
		g = graph.Cycle(spec.N)
	case "star":
		g = graph.Star(spec.N)
	case "complete":
		g = graph.Complete(spec.N)
	case "grid":
		g = graph.Grid(spec.Rows, spec.Cols)
	case "random":
		g = graph.RandomConnected(spec.N, spec.M, rng)
	case "lowdiameter":
		g = graph.LowDiameterExpanderish(spec.N, spec.AvgDeg, rng)
	case "diametercontrolled":
		g = graph.DiameterControlled(spec.N, spec.D, rng)
	case "barbell":
		g = graph.Barbell(spec.K, spec.BridgeLen)
	case "spineleaf":
		wCore, wEdge := spec.WCore, spec.WEdge
		if wCore == 0 {
			wCore = 1
		}
		if wEdge == 0 {
			wEdge = 1
		}
		g = graph.SpineLeaf(spec.Spines, spec.Leaves, spec.Hosts, wCore, wEdge)
	default:
		return nil, fmt.Errorf("unknown generator kind %q", spec.Kind)
	}
	if spec.MaxW > 1 {
		g = graph.RandomWeights(g, spec.MaxW, rng)
	}
	return g, nil
}

// handleExactMetric answers diameter/radius/eccentricity from the
// per-graph exact-metric memos: diameter and radius share one memo,
// filled by the bounding sweep, and eccentricity reads another, filled
// with the whole table. The first touch of a memo computes it under the
// build gate; every later read of it is warm and rides the query gate.
func (s *Server) handleExactMetric(w http.ResponseWriter, r *http.Request, e *entry, metric string) {
	v := 0
	if metric == "eccentricity" {
		raw := r.URL.Query().Get("v")
		if raw == "" {
			writeError(w, http.StatusBadRequest, "eccentricity needs a ?v= vertex parameter")
			return
		}
		var err error
		v, err = strconv.Atoi(raw)
		if err != nil || v < 0 || v >= e.g.N() {
			writeError(w, http.StatusBadRequest, "vertex %q out of range [0,%d)", raw, e.g.N())
			return
		}
	}
	warm := e.ext.isReady()
	if metric == "eccentricity" {
		warm = e.eccs.isReady()
	}
	g := s.query
	if !warm {
		g = s.build
	}
	if !admit(w, r.Context(), g) {
		return
	}
	defer g.leave()
	if warm {
		// Counted only for admitted requests: shed traffic never
		// inflates the warm-start payoff ledger.
		s.noteWarmHit(e)
	}
	s.touch(e, nil)
	resp := MetricResponse{Digest: e.info.Digest, Metric: metric}
	switch metric {
	case "diameter":
		resp.Value = e.extremes().diam
	case "radius":
		resp.Value = e.extremes().radius
	default:
		resp.V = v
		resp.Value = e.eccentricities()[v]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request, e *entry) {
	var req SketchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	n := e.g.N()
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, "sources must be non-empty")
		return
	}
	for _, u := range req.Sources {
		if u < 0 || u >= n {
			writeError(w, http.StatusBadRequest, "source %d out of range [0,%d)", u, n)
			return
		}
	}
	if req.L < 1 || req.K < 1 {
		writeError(w, http.StatusBadRequest, "need l >= 1 and k >= 1, got l=%d k=%d", req.L, req.K)
		return
	}
	// No simple path exceeds n-1 hops, so larger budgets only burn CPU
	// in a build slot (mirrors core.ParamsFor's 4n clamp, as a hard
	// error at the API boundary).
	if req.L > 4*n {
		writeError(w, http.StatusBadRequest, "hop budget l=%d exceeds 4*n = %d", req.L, 4*n)
		return
	}
	// maxEpsT keeps the denominator 2*T*l and the per-scale cap
	// (1+2T)*l far from int64 overflow (Eq. (1) uses T = ceil(log2 n)).
	if req.EpsT < 0 || req.EpsT > maxEpsT {
		writeError(w, http.StatusBadRequest, "epsT must be in [0, %d], got %d", int64(maxEpsT), req.EpsT)
		return
	}
	eps := dist.Eps{T: req.EpsT}
	if eps.T == 0 {
		eps = dist.EpsForN(n)
	}
	vertices := req.Vertices
	if len(vertices) == 0 {
		vertices = req.Sources
	}
	for _, v := range vertices {
		if v < 0 || v >= n {
			writeError(w, http.StatusBadRequest, "vertex %d out of range [0,%d)", v, n)
			return
		}
	}

	// Route by cache temperature: a completed entry serves on the query
	// gate, while likely-cold requests (misses and joins of an in-flight
	// build) pay the build gate, so a burst of cold builds saturates at
	// BuildSlots instead of displacing warm traffic. The probe is
	// advisory — an entry completing (or evicting) between Peek and
	// Skeleton just means this request holds the other gate's slot,
	// which is harmless. leave() is deferred: a panic out of a failed
	// deduplicated build must not leak the slot.
	gate, warm := s.query, s.cache.Peek(e.g, req.Sources, req.L, req.K, eps)
	if !warm {
		gate = s.build
	}
	if !admit(w, r.Context(), gate) {
		return
	}
	defer gate.leave()
	if warm {
		s.noteWarmHit(e)
	}
	sk := s.cache.Skeleton(e.g, req.Sources, req.L, req.K, eps)
	// Record the tuple as the graph's warm-start hint only now that the
	// build succeeded: a tuple that panics the builder (failed
	// deduplicated flight) must never become a persisted hint the next
	// boot replays.
	s.touch(e, &store.SketchParams{Sources: req.Sources, L: req.L, K: req.K, EpsT: req.EpsT})
	resp := SketchResponse{
		Digest:         e.info.Digest,
		EpsT:           eps.T,
		Den:            sk.DenOut,
		Eccentricities: make([]SketchEcc, len(vertices)),
	}
	for i, v := range vertices {
		resp.Eccentricities[i] = SketchEcc{V: v, Num: sk.ApproxEccentricity(v)}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Digests) == 0 {
		writeError(w, http.StatusBadRequest, "digests must be non-empty")
		return
	}
	if len(req.Digests) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Digests), s.cfg.MaxBatch)
		return
	}
	gs := make([]*graph.Graph, len(req.Digests))
	for i, dh := range req.Digests {
		e, ok := s.lookup(w, dh)
		if !ok {
			return
		}
		// The APSP protocol holds an n-length distance vector per node,
		// so one oversized job costs Θ(n²) memory.
		if n := e.g.N(); n > s.cfg.MaxBatchNodes {
			writeError(w, http.StatusBadRequest,
				"graph %s has n=%d, above the batch limit %d", dh, n, s.cfg.MaxBatchNodes)
			return
		}
		gs[i] = e.g
	}
	if !admit(w, r.Context(), s.build) {
		return
	}
	defer s.build.leave()
	diams, radii, stats, err := baseline.ClassicalDiameterBatch(gs, req.Parallelism)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "batch APSP failed: %v", err)
		return
	}
	resp := BatchResponse{Results: make([]BatchEntry, len(gs))}
	for i := range gs {
		resp.Results[i] = BatchEntry{
			Digest:   req.Digests[i],
			Diameter: diams[i],
			Radius:   radii[i],
			Rounds:   stats[i].Rounds,
			Messages: stats[i].Messages,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
