package svc

// The JSON wire types of the API surface (API.md). The same structs are
// used by the handlers and by Client, so a round trip through the
// service is typed end to end.

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// Error is a human-readable description of what was rejected.
	Error string `json:"error"`
	// RequestID echoes the X-Request-Id response header so an error
	// body pasted into a bug report correlates with the daemon's
	// access log on its own.
	RequestID string `json:"requestId,omitempty"`
}

// GraphInfo identifies one registered graph.
type GraphInfo struct {
	// Digest is the canonical 16-hex-digit graph.Digest() value; it is
	// the graph's address in every other endpoint.
	Digest string `json:"digest"`
	// N is the node count.
	N int `json:"n"`
	// M is the undirected-edge count.
	M int `json:"m"`
	// MaxWeight is max_e w(e), the paper's W.
	MaxWeight int64 `json:"maxWeight"`
}

// GenSpec asks the daemon to generate a workload graph server-side
// (POST /v1/graphs with "gen"). Kind selects the generator; the other
// fields parameterize it (see API.md for the per-kind requirements).
type GenSpec struct {
	// Kind is one of "path", "cycle", "star", "complete", "grid",
	// "random", "lowdiameter", "diametercontrolled", "barbell",
	// "spineleaf".
	Kind string `json:"kind"`
	// N is the node count (path, cycle, star, complete, random,
	// lowdiameter, diametercontrolled).
	N int `json:"n,omitempty"`
	// M is the approximate edge count (random).
	M int `json:"m,omitempty"`
	// Rows is the grid generator's row count.
	Rows int `json:"rows,omitempty"`
	// Cols is the grid generator's column count.
	Cols int `json:"cols,omitempty"`
	// AvgDeg is the lowdiameter average degree.
	AvgDeg int `json:"avgDeg,omitempty"`
	// D is the diametercontrolled target unweighted diameter.
	D int `json:"d,omitempty"`
	// K is the barbell clique size.
	K int `json:"k,omitempty"`
	// BridgeLen is the barbell bridge length.
	BridgeLen int `json:"bridgeLen,omitempty"`
	// Spines is the spineleaf spine-switch count.
	Spines int `json:"spines,omitempty"`
	// Leaves is the spineleaf leaf-switch count.
	Leaves int `json:"leaves,omitempty"`
	// Hosts is the spineleaf hosts-per-leaf count.
	Hosts int `json:"hosts,omitempty"`
	// WCore is the spineleaf spine-leaf link weight (default 1).
	WCore int64 `json:"wCore,omitempty"`
	// WEdge is the spineleaf host-leaf link weight (default 1).
	WEdge int64 `json:"wEdge,omitempty"`
	// MaxW, when > 1, reweights the generated graph with uniform
	// weights in [1, MaxW] drawn from Seed.
	MaxW int64 `json:"maxW,omitempty"`
	// Seed drives every random choice; the same spec always generates
	// the same graph (and therefore the same digest).
	Seed int64 `json:"seed,omitempty"`
}

// UploadRequest is the body of POST /v1/graphs. Exactly one of
// EdgeList and Gen must be set.
type UploadRequest struct {
	// EdgeList is a graph in the graph.ParseEdgeList wire format
	// ("n <nodes>" header, then one "u v w" line per edge).
	EdgeList string `json:"edgelist,omitempty"`
	// Gen generates the graph server-side instead.
	Gen *GenSpec `json:"gen,omitempty"`
}

// UploadResponse answers POST /v1/graphs.
type UploadResponse struct {
	GraphInfo
	// Created is false when an identical graph was already registered
	// (the call is idempotent).
	Created bool `json:"created"`
}

// GraphListResponse answers GET /v1/graphs.
type GraphListResponse struct {
	// Graphs lists every registered graph in registration order.
	Graphs []GraphInfo `json:"graphs"`
}

// MetricResponse answers the exact-metric endpoints
// (GET /v1/graphs/{digest}/diameter, /radius, /eccentricity?v=).
type MetricResponse struct {
	// Digest names the graph answered for.
	Digest string `json:"digest"`
	// Metric is "diameter", "radius", or "eccentricity".
	Metric string `json:"metric"`
	// V is the queried vertex (eccentricity only).
	V int `json:"v,omitempty"`
	// Value is the exact weighted metric; graph.Inf (1<<60) marks a
	// disconnected graph.
	Value int64 `json:"value"`
}

// SketchRequest is the body of POST /v1/graphs/{digest}/sketch: the
// full Lemma 3.2 parameter tuple plus the vertices to evaluate.
type SketchRequest struct {
	// Sources is the skeleton node set S_i (non-empty, every vertex in
	// range). Order matters for cache identity: permutations are
	// distinct cache lines that answer identically.
	Sources []int `json:"sources"`
	// L is the hop budget ℓ (1 <= l <= 4·n: no simple path exceeds n-1
	// hops, so larger budgets only waste build time).
	L int `json:"l"`
	// K is the Algorithm 4 sparsification parameter (>= 1).
	K int `json:"k"`
	// EpsT is the inverse rounding parameter T = 1/ε; 0 selects the
	// paper's Eq. (1) default ⌈log₂ n⌉ for this graph. Capped at 2^20
	// so the rational arithmetic stays far from int64 overflow.
	EpsT int64 `json:"epsT,omitempty"`
	// Vertices are the query points ẽ is evaluated at; empty defaults
	// to Sources.
	Vertices []int `json:"vertices,omitempty"`
}

// SketchEcc is one approximate-eccentricity answer.
type SketchEcc struct {
	// V is the evaluated vertex.
	V int `json:"v"`
	// Num is the ẽ_{G,w,i}(v) numerator over SketchResponse.Den;
	// graph.Inf (1<<60) marks some vertex unreachable within the hop
	// budget.
	Num int64 `json:"num"`
}

// SketchResponse answers POST /v1/graphs/{digest}/sketch. Same digest
// and same parameters yield byte-identical numerators on every daemon —
// the determinism contract of API.md.
type SketchResponse struct {
	// Digest names the graph answered for.
	Digest string `json:"digest"`
	// EpsT echoes the effective T (resolved when the request left it 0).
	EpsT int64 `json:"epsT"`
	// Den is the common denominator 2·T·ℓ of every numerator.
	Den int64 `json:"den"`
	// Eccentricities holds one entry per requested vertex, in request
	// order.
	Eccentricities []SketchEcc `json:"eccentricities"`
}

// BatchRequest is the body of POST /v1/batch: run the classical exact
// APSP baseline over many registered graphs as one congest.RunBatch.
type BatchRequest struct {
	// Digests names the graphs to sweep (repeats allowed). Each graph
	// must be within the daemon's batch node limit: one APSP job costs
	// Θ(n²) memory while it runs.
	Digests []string `json:"digests"`
	// Parallelism bounds how many simulations run at once (0 =
	// GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchEntry is one graph's result within a batch.
type BatchEntry struct {
	// Digest names the graph this row answers for.
	Digest string `json:"digest"`
	// Diameter is the exact weighted diameter the APSP protocol
	// converged to.
	Diameter int64 `json:"diameter"`
	// Radius is the exact weighted radius.
	Radius int64 `json:"radius"`
	// Rounds is the measured CONGEST round count of the run.
	Rounds int `json:"rounds"`
	// Messages is the measured message volume of the run.
	Messages int64 `json:"messages"`
}

// BatchResponse answers POST /v1/batch; Results is in request order.
type BatchResponse struct {
	// Results holds one entry per requested digest.
	Results []BatchEntry `json:"results"`
}

// StoreHealth is the durability section of /healthz, present only when
// the daemon runs over a -data-dir. The daemon is "ok" while warm-up is
// still in progress — warmth affects latency, never correctness — so
// load balancers admit a recovering daemon immediately.
type StoreHealth struct {
	// RecoveredGraphs counts graphs replayed (snapshot + log) at boot.
	RecoveredGraphs int `json:"recoveredGraphs"`
	// QuarantinedRecords counts boot-time casualties: records that
	// failed digest or checksum verification and were moved aside.
	QuarantinedRecords int `json:"quarantinedRecords"`
	// ReplayMs is the boot-time recovery duration in milliseconds.
	ReplayMs float64 `json:"replayMs"`
	// WarmupTarget is the number of graphs the warm-start pass will
	// pre-warm; WarmupDone counts how many it has finished. Equal means
	// the warm-start pass is complete.
	WarmupTarget int64 `json:"warmupTarget"`
	// WarmupDone counts pre-warmed graphs so far.
	WarmupDone int64 `json:"warmupDone"`
}

// ReplicationHealth is the replication section of /healthz and
// /metrics: present on every durable daemon (role "leader") and on
// every follower (role "follower", whatever its storage mode).
type ReplicationHealth struct {
	// Role is "leader" (accepts writes, serves /v1/replicate) or
	// "follower" (read-only, tails a leader).
	Role string `json:"role"`
	// Leader is the followed base URL (followers only).
	Leader string `json:"leader,omitempty"`
	// Epoch is the leadership generation this node last acknowledged —
	// bumped by /v1/promote and /v1/demote, persisted in the store
	// manifest on durable nodes. The router's election fencing compares
	// these (see API.md "Cluster control plane").
	Epoch uint64 `json:"epoch"`
	// Chain is this node's digest chain (16 hex digits): a running fold
	// of (seq, digest) over committed graph records in ascending
	// sequence order. Two replicas with equal Seq and Chain hold
	// byte-identical replicated logs — the parity assertion of the
	// fault e2e and qload's cluster audit.
	Chain string `json:"chain,omitempty"`
	// Seq is this node's replication position: the highest committed
	// graph sequence on a leader, the catch-up cursor on a follower.
	Seq uint64 `json:"seq"`
	// LeaderSeq is the leader's last reported head (followers only).
	LeaderSeq uint64 `json:"leaderSeq,omitempty"`
	// SeqDelta is max(LeaderSeq-Seq, 0) — the replication lag in
	// sequence steps. Readiness fails ("lagging", HTTP 503) while it
	// exceeds MaxLagSeq.
	SeqDelta uint64 `json:"seqDelta"`
	// MaxLagSeq is the configured readiness threshold (followers only).
	MaxLagSeq uint64 `json:"maxLagSeq,omitempty"`
	// MsSinceApply is the time since the follower last applied a
	// record, in milliseconds (0 until the first apply).
	MsSinceApply float64 `json:"msSinceApply,omitempty"`
	// MsSinceContact is the time since the leader last answered a
	// catch-up poll, in milliseconds (0 until the first response).
	MsSinceContact float64 `json:"msSinceContact,omitempty"`
	// AppliedGraphs counts graphs applied from the stream since boot.
	AppliedGraphs int64 `json:"appliedGraphs,omitempty"`
	// SkippedRecords counts stream records skipped as already applied
	// (duplicates below the cursor) or as non-graph kinds.
	SkippedRecords int64 `json:"skippedRecords,omitempty"`
	// RejectedRecords counts records refused by verification (CRC,
	// digest, or sequence-clock failures). Nonzero means the leader
	// stream carried something a healthy leader cannot produce.
	RejectedRecords int64 `json:"rejectedRecords,omitempty"`
	// StreamErrors counts failed catch-up rounds (transport errors,
	// non-200 leader answers, torn transfers).
	StreamErrors int64 `json:"streamErrors,omitempty"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	// Status is "ok" while serving, "draining" during graceful
	// shutdown, "lagging" while a follower trails its leader beyond
	// MaxLagSeq (the latter two with HTTP 503).
	Status string `json:"status"`
	// Graphs is the registry size.
	Graphs int `json:"graphs"`
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Store reports recovery/warm-up progress (persistent daemons only).
	Store *StoreHealth `json:"store,omitempty"`
	// Replication reports the node's cluster role and catch-up
	// position (durable leaders and all followers).
	Replication *ReplicationHealth `json:"replication,omitempty"`
}

// PromoteRequest is the body of POST /v1/promote: make this node the
// shard leader at the given epoch.
type PromoteRequest struct {
	// Epoch is the new leadership generation — must be strictly above
	// every epoch any prior leader of the shard acknowledged. The
	// router sends its topology epoch + 1.
	Epoch uint64 `json:"epoch"`
}

// DemoteRequest is the body of POST /v1/demote: make this node a
// follower of the given leader at the given epoch.
type DemoteRequest struct {
	// Epoch is the leadership generation being acknowledged (the
	// current leader's); below this node's own epoch it is refused.
	Epoch uint64 `json:"epoch"`
	// Leader is the base URL of the leader to follow.
	Leader string `json:"leader"`
}

// RoleResponse answers /v1/promote and /v1/demote with the node's
// settled role.
type RoleResponse struct {
	// Role is "leader" or "follower" after the transition.
	Role string `json:"role"`
	// Epoch is the acknowledged leadership generation.
	Epoch uint64 `json:"epoch"`
	// Seq is the node's replication position (head or cursor).
	Seq uint64 `json:"seq"`
	// Chain is the node's digest chain at Seq (16 hex digits).
	Chain string `json:"chain,omitempty"`
}

// CacheMetrics is the sketch-cache section of /metrics, mirroring
// cache.CacheStats.
type CacheMetrics struct {
	// Hits counts lookups answered from a completed entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that triggered a build.
	Misses int64 `json:"misses"`
	// Waits counts lookups deduplicated onto an in-flight build.
	Waits int64 `json:"waits"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// Size is the resident entry count (including in-flight builds).
	Size int `json:"size"`
	// HitRate is (hits+waits)/lookups — the fraction of sketch lookups
	// that did not trigger a build of their own.
	HitRate float64 `json:"hitRate"`
}

// RequestMetrics is one request class's section of /metrics.
type RequestMetrics struct {
	// Count is the number of completed requests.
	Count int64 `json:"count"`
	// Errors4x counts completed requests with a 4xx status.
	Errors4x int64 `json:"errors4xx"`
	// Errors5x counts completed requests with a 5xx status.
	Errors5x int64 `json:"errors5xx"`
	// InFlight is the number of requests currently executing.
	InFlight int64 `json:"inFlight"`
	// P50Ms is the median latency in milliseconds (upper bound of the
	// containing power-of-two histogram bucket).
	P50Ms float64 `json:"p50Ms"`
	// P99Ms is the 99th-percentile latency in milliseconds.
	P99Ms float64 `json:"p99Ms"`
}

// KeyMetrics is one API key's admission ledger within /metrics,
// present when per-key rate limits or tenant quotas are configured.
type KeyMetrics struct {
	// Allowed counts requests that passed the key's token bucket.
	Allowed int64 `json:"allowed"`
	// Limited counts requests shed with 429.
	Limited int64 `json:"limited"`
	// Graphs counts graphs this key created (the quota ledger).
	Graphs int64 `json:"graphs"`
}

// StoreMetrics is the durability section of /metrics, present only for
// persistent daemons.
type StoreMetrics struct {
	// Graphs is the store's resident graph count.
	Graphs int `json:"graphs"`
	// Appends counts durable graph commits since boot.
	Appends int64 `json:"appends"`
	// Touches counts recorded query-recency hints since boot.
	Touches int64 `json:"touches"`
	// Snapshots counts log-to-snapshot folds since boot.
	Snapshots int64 `json:"snapshots"`
	// WALBytes is the active append-only log's size.
	WALBytes int64 `json:"walBytes"`
	// SnapshotBytes is the latest snapshot's size.
	SnapshotBytes int64 `json:"snapshotBytes"`
	// RecoveredGraphs counts graphs replayed at boot.
	RecoveredGraphs int `json:"recoveredGraphs"`
	// QuarantinedRecords counts boot-time verification casualties.
	QuarantinedRecords int `json:"quarantinedRecords"`
	// TornTailTruncated reports that boot truncated a torn log tail
	// (the expected artifact of a crash mid-append).
	TornTailTruncated bool `json:"tornTailTruncated"`
	// ReplayMs is the boot-time recovery duration in milliseconds.
	ReplayMs float64 `json:"replayMs"`
	// WarmupTarget/WarmupDone track the boot-time warm-start pass.
	WarmupTarget int64 `json:"warmupTarget"`
	// WarmupDone counts pre-warmed graphs so far.
	WarmupDone int64 `json:"warmupDone"`
	// WarmStartHits counts warm reads served against pre-warmed graphs
	// — the payoff ledger of the warm-start pass.
	WarmStartHits int64 `json:"warmStartHits"`
	// LastSnapshotError is the most recent automatic-snapshot failure
	// ("" when healthy); the log keeps committing regardless.
	LastSnapshotError string `json:"lastSnapshotError,omitempty"`
}

// MetricsSnapshot answers GET /metrics.
type MetricsSnapshot struct {
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Graphs is the registry size.
	Graphs int `json:"graphs"`
	// Cache is the sketch-cache effectiveness section.
	Cache CacheMetrics `json:"cache"`
	// BuildSlotsInUse is the build admission gate's occupancy.
	BuildSlotsInUse int `json:"buildSlotsInUse"`
	// QuerySlotsInUse is the query admission gate's occupancy.
	QuerySlotsInUse int `json:"querySlotsInUse"`
	// Requests maps request class ("upload", "query", "sketch",
	// "batch") to its ledger.
	Requests map[string]RequestMetrics `json:"requests"`
	// RateLimits maps API key to its admission ledger (present only
	// when per-key limits are configured).
	RateLimits map[string]KeyMetrics `json:"rateLimits,omitempty"`
	// Store is the durability section (persistent daemons only).
	Store *StoreMetrics `json:"store,omitempty"`
	// Replication is the cluster-role section (durable leaders and all
	// followers), identical to the /healthz block.
	Replication *ReplicationHealth `json:"replication,omitempty"`
}
