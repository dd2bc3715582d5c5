// Package qcongest is a reproduction of Wu & Yao, "Quantum Complexity of
// Weighted Diameter and Radius in CONGEST Networks" (PODC 2022,
// arXiv:2206.02767), as a production Go library.
//
// The package re-exports the library's stable surface:
//
//   - Weighted graphs and generators (the network substrate).
//   - Approximate: the paper's Theorem 1.1 algorithm — a quantum CONGEST
//     procedure that (1+o(1))-approximates the weighted diameter or radius
//     in Õ(min{n^(9/10)·D^(3/10), n}) simulated rounds.
//   - The lower-bound pipeline of Theorems 4.2/4.8: gadget constructions,
//     the F/F' communication problems, and the Server-model simulation of
//     Lemma 4.1.
//   - The classical and quantum baselines of Table 1.
//
// See README.md for a quickstart and DESIGN.md for how the quantum and
// network substrates are simulated.
package qcongest

import (
	"math/rand"

	"qcongest/internal/baseline"
	"qcongest/internal/cache"
	"qcongest/internal/cluster"
	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/gadget"
	"qcongest/internal/graph"
	"qcongest/internal/server"
	"qcongest/internal/svc"
)

// Graph is an undirected weighted network (w : E -> N+).
type Graph = graph.Graph

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Generators for experiment workloads.
var (
	Path               = graph.Path
	Cycle              = graph.Cycle
	Star               = graph.Star
	Complete           = graph.Complete
	Grid               = graph.Grid
	RandomTree         = graph.RandomTree
	RandomConnected    = graph.RandomConnected
	RandomWeights      = graph.RandomWeights
	LowDiameter        = graph.LowDiameterExpanderish
	DiameterControlled = graph.DiameterControlled
	Barbell            = graph.Barbell
	SpineLeaf          = graph.SpineLeaf
)

// Mode selects the metric for Approximate.
type Mode = core.Mode

// Modes.
const (
	DiameterMode = core.DiameterMode
	RadiusMode   = core.RadiusMode
)

// Options configure Approximate.
type Options = core.Options

// Result is the outcome of Approximate, including the round ledger.
type Result = core.Result

// Params are the paper's Eq. (1) parameter choices.
type Params = core.Params

// Approximate runs the Theorem 1.1 quantum CONGEST algorithm on the
// weighted network g and returns a (1+o(1))-approximation of the chosen
// metric with its measured round complexity.
func Approximate(g *Graph, mode Mode, opts Options) (*Result, error) {
	return core.Approximate(g, mode, opts)
}

// Lower-bound pipeline (§4).
type (
	// Input is a two-party lower-bound input x ∈ {0,1}^(2^s × ℓ).
	Input = gadget.Input
	// Construction is an instantiated Figure 2/4 gadget network.
	Construction = gadget.Construction
	// GapReport is a Lemma 4.4/4.9 verification outcome.
	GapReport = gadget.GapReport
	// SimulationReport is the Lemma 4.1 Server-model accounting.
	SimulationReport = server.Report
)

// Lower-bound functions and builders.
var (
	NewInput          = gadget.NewInput
	F                 = gadget.F
	FPrime            = gadget.FPrime
	BuildDiameterGap  = gadget.BuildDiameter
	BuildRadiusGap    = gadget.BuildRadius
	TheoremWeights    = gadget.TheoremWeights
	EqTwoParams       = gadget.EqTwoParams
	LowerBoundRounds  = server.LowerBoundRounds
	DecideDiameterRed = server.DecideDiameter
	DecideRadiusRed   = server.DecideRadius
)

// Sketch-serving layer: repeated distance queries against a fixed
// topology are answered from a bounded LRU cache of Lemma 3.2
// skeletons with single-flight deduplication (DESIGN.md §3.6).
type (
	// SketchCache is the bounded, thread-safe skeleton cache.
	SketchCache = cache.SketchCache
	// CacheStats is a snapshot of cache effectiveness counters.
	CacheStats = cache.CacheStats
	// Skeleton answers approximate eccentricity queries ẽ_{G,w,i}(·).
	Skeleton = dist.Skeleton
	// Eps is the paper's rounding parameter ε = 1/T.
	Eps = dist.Eps
)

// Sketch-serving constructors and parameter helpers.
var (
	NewSketchCache = cache.NewSketchCache
	EpsForN        = dist.EpsForN
	BuildSkeleton  = dist.BuildSkeleton
)

// Serving layer (internal/svc): the qcongestd daemon's handler and the
// typed client of its HTTP/JSON API. See API.md for the endpoint
// reference and DESIGN.md §8 for the architecture. Note the naming
// split: this is deployment infrastructure, distinct from the paper's
// three-party Server model of Lemma 4.1 (SimulationReport above).
type (
	// Service is the daemon's state and http.Handler (mount on an
	// http.Server, or on httptest for in-process use).
	Service = svc.Server
	// ServiceConfig tunes cache capacity, admission gates, limits, and
	// the observability surface (per-key rate limits and quotas,
	// structured access logging — DESIGN.md §8.5).
	ServiceConfig = svc.Config
	// ServiceClient is the typed client of the qcongestd API. Set
	// APIKey to attribute traffic to one tenant bucket, and
	// RequireRequestID to assert the X-Request-Id contract per call.
	ServiceClient = svc.Client
	// GraphInfo identifies one registered graph (digest, n, m, W).
	GraphInfo = svc.GraphInfo
	// GenSpec asks the daemon to generate a workload graph server-side.
	GenSpec = svc.GenSpec
	// SketchRequest is the Lemma 3.2 parameter tuple of one sketch query.
	SketchRequest = svc.SketchRequest
	// SketchResponse carries the ẽ numerators over their common denominator.
	SketchResponse = svc.SketchResponse
	// BatchRequest runs the classical APSP baseline over registered graphs.
	BatchRequest = svc.BatchRequest
	// BatchResponse is the per-graph batch outcome.
	BatchResponse = svc.BatchResponse
	// ServiceMetrics is the /metrics JSON snapshot (cache hit rate,
	// latency quantiles, admission occupancy, per-key rate-limit
	// ledgers). The same endpoint also serves the Prometheus text
	// exposition under content negotiation — see API.md "GET /metrics".
	ServiceMetrics = svc.MetricsSnapshot
)

// Serving-layer constructors and the wire codecs of POST /v1/graphs:
// the text edge list and the varint-delta binary format (DESIGN.md §10).
// Both round-trip a graph exactly, including the edge insertion order
// its Digest hashes. OpenService is NewService plus durability: with
// ServiceConfig.DataDir set it opens the crash-safe graph store there,
// replays every committed graph, and pre-warms the
// ServiceConfig.WarmStart hottest ones (API.md "Persistence and warm
// restarts", DESIGN.md §9); the caller owns Service.Close.
var (
	NewService       = svc.New
	OpenService      = svc.Open
	NewServiceClient = svc.NewClient
	FormatEdgeList   = graph.FormatEdgeList
	ParseEdgeList    = graph.ParseEdgeList
	FormatBinary     = graph.FormatBinary
	ParseBinary      = graph.ParseBinary
)

// Cluster tier (internal/cluster): the qrouter proxy that consistent-
// hashes graph digests across qcongestd shards, sheds writes for a
// downed leader with 503 + Retry-After, and fails reads over to any
// in-sync WAL-shipped replica (DESIGN.md §11, API.md "Cluster
// routing"). Replication itself lives in the daemons — set
// ServiceConfig.FollowURL to run a Service as a read-only follower.
type (
	// ClusterRouter is the routing proxy's state and http.Handler; the
	// caller owns Close.
	ClusterRouter = cluster.Router
	// ClusterRouterConfig tunes the probe cadence, body caps, and parse
	// limits of a router.
	ClusterRouterConfig = cluster.Config
	// ClusterTopology is the static shard layout: shards of replica
	// URLs, leader first.
	ClusterTopology = cluster.Topology
	// ClusterInfo is the live topology descriptor GET /v1/cluster
	// answers (per-node role and probe state).
	ClusterInfo = cluster.ClusterInfo
)

// Cluster-tier constructors: ParseClusterTopology reads the -peers
// spelling ("leader;replica,leader;replica" — shards comma-separated,
// replicas semicolon-separated), NewClusterRouter builds the proxy and
// starts its health prober.
var (
	ParseClusterTopology = cluster.ParseTopology
	NewClusterRouter     = cluster.NewRouter
)

// SimOptions configure a CONGEST simulation run.
type SimOptions = congest.Options

// SimStats is the exact round/message accounting of a simulation.
type SimStats = congest.Stats

// ClassicalDiameter runs the classical exact APSP baseline and returns
// the exact weighted diameter and radius with measured CONGEST rounds.
func ClassicalDiameter(g *Graph, opts SimOptions) (diam, radius int64, stats SimStats, err error) {
	return baseline.ClassicalDiameter(g, opts)
}

// QuantumUnweightedDiameter runs the Le Gall-Magniez-style quantum
// baseline for the unweighted diameter.
func QuantumUnweightedDiameter(g *Graph, seed int64) (baseline.QuantumUnweightedResult, error) {
	return baseline.QuantumUnweightedDiameter(g, seed)
}

// NewRand returns a deterministic PRNG for workload generation; the
// library never uses global randomness.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
