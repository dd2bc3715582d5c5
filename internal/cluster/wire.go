package cluster

// The router's own JSON surfaces: /v1/cluster (the topology descriptor
// cluster-aware clients like qload -mix cluster use to find every
// replica), /healthz, and the JSON half of /metrics.

// NodeInfo is one daemon's entry in the /v1/cluster descriptor.
type NodeInfo struct {
	// URL is the daemon's base URL.
	URL string `json:"url"`
	// Role is the node's position in the live topology: "leader" or
	// "follower". Promotion rewrites it without a restart.
	Role string `json:"role"`
	// Ready reports the last probe answered 200 (serving and in sync).
	Ready bool `json:"ready"`
	// Alive reports the last probe got any HTTP answer at all (a
	// draining or lagging node is alive but not ready).
	Alive bool `json:"alive"`
	// Epoch / Seq / Chain are the node's self-reported leadership
	// epoch, replication position, and digest chain as of the last
	// parsed probe body — the election evidence the promotion
	// supervisor works from. Zero until a probe has read a body.
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	Chain string `json:"chain,omitempty"`
}

// ShardInfo is one shard's entry in the /v1/cluster descriptor.
type ShardInfo struct {
	// Name is the shard's ring identity.
	Name string `json:"name"`
	// Leader is the shard's write endpoint.
	Leader string `json:"leader"`
	// Nodes lists every replica, leader first.
	Nodes []NodeInfo `json:"nodes"`
}

// ClusterInfo answers GET /v1/cluster.
type ClusterInfo struct {
	// Epoch is the router's topology epoch: the leadership generation
	// of the most recent promotion or adoption (0 until the first).
	Epoch uint64 `json:"epoch"`
	// Shards lists the live topology with probe state, leader first.
	Shards []ShardInfo `json:"shards"`
}

// RouterHealth answers GET /healthz on the router.
type RouterHealth struct {
	// Status is "ok" when every shard's leader is ready, "degraded"
	// when some shard's leader is not (both HTTP 200 — the router
	// itself is serving), "draining" during shutdown (HTTP 503).
	Status string `json:"status"`
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// ShardsReady counts shards whose leader is ready, so a shard
	// counted here accepts writes.
	ShardsReady int `json:"shardsReady"`
	// FollowersReady counts ready followers over all shards; a shard
	// whose leader is down still serves reads from them.
	FollowersReady int `json:"followersReady"`
	// Epoch is the router's topology epoch (see ClusterInfo).
	Epoch uint64 `json:"epoch"`
	// UptimeSeconds is the time since the router started.
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// ShardMetrics is one shard's routing ledger within /metrics.
type ShardMetrics struct {
	// Name is the shard's ring identity.
	Name string `json:"name"`
	// Writes counts uploads routed to the shard's leader.
	Writes int64 `json:"writes"`
	// WriteSheds counts uploads shed with 503 because the leader was
	// not ready (shed, never silently dropped: the client owns retry).
	WriteSheds int64 `json:"writeSheds"`
	// Reads counts read requests routed into the shard.
	Reads int64 `json:"reads"`
	// ReadFailovers counts reads that had to try more than one node.
	ReadFailovers int64 `json:"readFailovers"`
	// ReadFailures counts reads that exhausted every node.
	ReadFailures int64 `json:"readFailures"`
}

// PeerMetrics is one daemon's forwarding/probe ledger within /metrics.
type PeerMetrics struct {
	// URL is the daemon's base URL.
	URL string `json:"url"`
	// Shard is the owning shard's name.
	Shard string `json:"shard"`
	// Role is the node's live-topology position, "leader" or
	// "follower".
	Role string `json:"role"`
	// Forwards counts requests proxied to this daemon.
	Forwards int64 `json:"forwards"`
	// Errors counts proxied requests that failed (transport error or
	// 5xx answer).
	Errors int64 `json:"errors"`
	// Probes / ProbeFails count health probes and their failures.
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probeFails"`
	// Ready / Alive mirror the probe state (see NodeInfo).
	Ready bool `json:"ready"`
	Alive bool `json:"alive"`
	// Epoch / Seq mirror the node's last self-reported replication
	// evidence (see NodeInfo).
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// RouterMetrics answers GET /metrics on the router (JSON view).
type RouterMetrics struct {
	// UptimeSeconds is the time since the router started.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Epoch is the router's topology epoch (see ClusterInfo).
	Epoch uint64 `json:"epoch"`
	// Promotions / Demotions / Adoptions count self-healing events:
	// followers promoted to leader, stale leaders demoted, and
	// higher-epoch leaders adopted into the topology (router restart).
	Promotions int64 `json:"promotions"`
	Demotions  int64 `json:"demotions"`
	Adoptions  int64 `json:"adoptions"`
	// PromoteFails counts promotion attempts that did not end in a 200.
	PromoteFails int64 `json:"promoteFails"`
	// LastPromotionMs is the wall-clock cost of the most recent
	// successful promotion, election to acknowledgment (0 when none).
	LastPromotionMs int64 `json:"lastPromotionMs"`
	// Shards holds one routing ledger per shard, topology order.
	Shards []ShardMetrics `json:"shards"`
	// Peers holds one forwarding ledger per daemon, topology order.
	Peers []PeerMetrics `json:"peers"`
}
