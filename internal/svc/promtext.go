package svc

// The Prometheus exposition view of /metrics: the internal/prom
// text-format encoder over the same lock-free counters the JSON
// snapshot reads, selected by content negotiation (handleMetrics). The
// request-latency histograms are emitted as *native* Prometheus
// histograms — the raw power-of-two buckets, cumulative, with _sum and
// _count — so quantiles come from the scraper's histogram_quantile
// over real buckets instead of this daemon's bucket-upper-bound
// estimate.

import (
	"net/http"
	"sort"
	"strconv"

	"qcongest/internal/prom"
)

// writePromText renders the full exposition payload. Families and
// label sets are emitted in deterministic order so scrapes diff
// cleanly and the parser test can make exact assertions.
func (s *Server) writePromText(w http.ResponseWriter) {
	var p prom.Buf
	snap := s.snapshot()

	p.Family("qcongest_uptime_seconds", "gauge", "Seconds since the daemon started.")
	p.Sample("qcongest_uptime_seconds", "", snap.UptimeSeconds)
	p.Family("qcongest_registry_graphs", "gauge", "Graphs resident in the registry.")
	p.Sample("qcongest_registry_graphs", "", float64(snap.Graphs))

	p.Family("qcongest_cache_hits_total", "counter", "Sketch lookups answered from a completed cache entry.")
	p.Sample("qcongest_cache_hits_total", "", float64(snap.Cache.Hits))
	p.Family("qcongest_cache_misses_total", "counter", "Sketch lookups that triggered a build.")
	p.Sample("qcongest_cache_misses_total", "", float64(snap.Cache.Misses))
	p.Family("qcongest_cache_waits_total", "counter", "Sketch lookups deduplicated onto an in-flight build.")
	p.Sample("qcongest_cache_waits_total", "", float64(snap.Cache.Waits))
	p.Family("qcongest_cache_evictions_total", "counter", "Sketch cache LRU evictions.")
	p.Sample("qcongest_cache_evictions_total", "", float64(snap.Cache.Evictions))
	p.Family("qcongest_cache_entries", "gauge", "Resident sketch cache entries, including in-flight builds.")
	p.Sample("qcongest_cache_entries", "", float64(snap.Cache.Size))

	p.Family("qcongest_gate_slots_in_use", "gauge", "Admission gate occupancy by gate.")
	p.Sample("qcongest_gate_slots_in_use", prom.Labels("gate", "build"), float64(snap.BuildSlotsInUse))
	p.Sample("qcongest_gate_slots_in_use", prom.Labels("gate", "query"), float64(snap.QuerySlotsInUse))

	p.Family("qcongest_requests_total", "counter", "Completed requests by class.")
	for _, class := range allClasses {
		p.Sample("qcongest_requests_total", prom.Labels("class", class), float64(snap.Requests[class].Count))
	}
	p.Family("qcongest_request_errors_total", "counter", "Completed requests with error statuses, by class and family.")
	for _, class := range allClasses {
		p.Sample("qcongest_request_errors_total", prom.Labels("class", class, "family", "4xx"), float64(snap.Requests[class].Errors4x))
		p.Sample("qcongest_request_errors_total", prom.Labels("class", class, "family", "5xx"), float64(snap.Requests[class].Errors5x))
	}
	p.Family("qcongest_requests_in_flight", "gauge", "Requests currently executing, by class.")
	for _, class := range allClasses {
		p.Sample("qcongest_requests_in_flight", prom.Labels("class", class), float64(snap.Requests[class].InFlight))
	}

	// The native histograms: cumulative power-of-two buckets straight
	// from the lock-free ledger, le in seconds. Bucket i of the ledger
	// counts [2^i, 2^(i+1)) µs, so its cumulative upper bound is
	// 2^(i+1) µs; the top bucket absorbs everything beyond the range,
	// making +Inf equal to the running total by construction.
	p.Family("qcongest_request_duration_seconds", "histogram", "Request latency by class.")
	for _, class := range allClasses {
		c := s.metrics.class(class)
		var cum int64
		for i := 0; i < latencyBuckets; i++ {
			cum += c.hist[i].Load()
			le := strconv.FormatFloat(float64(uint64(1)<<uint(i+1))/1e6, 'g', -1, 64)
			p.Sample("qcongest_request_duration_seconds_bucket", prom.Labels("class", class, "le", le), float64(cum))
		}
		p.Sample("qcongest_request_duration_seconds_bucket", prom.Labels("class", class, "le", "+Inf"), float64(cum))
		p.Sample("qcongest_request_duration_seconds_sum", prom.Labels("class", class), float64(c.sumUs.Load())/1e6)
		p.Sample("qcongest_request_duration_seconds_count", prom.Labels("class", class), float64(cum))
	}

	if len(snap.RateLimits) > 0 {
		keys := make([]string, 0, len(snap.RateLimits))
		for key := range snap.RateLimits {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		p.Family("qcongest_key_requests_total", "counter", "Per-API-key admission outcomes.")
		for _, key := range keys {
			k := snap.RateLimits[key]
			p.Sample("qcongest_key_requests_total", prom.Labels("key", key, "result", "allowed"), float64(k.Allowed))
			p.Sample("qcongest_key_requests_total", prom.Labels("key", key, "result", "limited"), float64(k.Limited))
		}
		p.Family("qcongest_key_graphs", "gauge", "Graphs created per API key (the quota ledger).")
		for _, key := range keys {
			p.Sample("qcongest_key_graphs", prom.Labels("key", key), float64(snap.RateLimits[key].Graphs))
		}
	}

	if st := snap.Store; st != nil {
		p.Family("qcongest_store_graphs", "gauge", "Graphs resident in the durable store.")
		p.Sample("qcongest_store_graphs", "", float64(st.Graphs))
		p.Family("qcongest_store_appends_total", "counter", "Durable graph commits since boot.")
		p.Sample("qcongest_store_appends_total", "", float64(st.Appends))
		p.Family("qcongest_store_touches_total", "counter", "Recorded query-recency hints since boot.")
		p.Sample("qcongest_store_touches_total", "", float64(st.Touches))
		p.Family("qcongest_store_snapshots_total", "counter", "Log-to-snapshot folds since boot.")
		p.Sample("qcongest_store_snapshots_total", "", float64(st.Snapshots))
		p.Family("qcongest_store_wal_bytes", "gauge", "Active append-only log size.")
		p.Sample("qcongest_store_wal_bytes", "", float64(st.WALBytes))
		p.Family("qcongest_store_snapshot_bytes", "gauge", "Latest snapshot size.")
		p.Sample("qcongest_store_snapshot_bytes", "", float64(st.SnapshotBytes))
		p.Family("qcongest_store_recovered_graphs", "gauge", "Graphs replayed at boot.")
		p.Sample("qcongest_store_recovered_graphs", "", float64(st.RecoveredGraphs))
		p.Family("qcongest_store_quarantined_records", "gauge", "Boot-time digest/checksum verification casualties.")
		p.Sample("qcongest_store_quarantined_records", "", float64(st.QuarantinedRecords))
		p.Family("qcongest_store_replay_seconds", "gauge", "Boot-time recovery duration.")
		p.Sample("qcongest_store_replay_seconds", "", st.ReplayMs/1000)
		p.Family("qcongest_store_warmup_target", "gauge", "Graphs the warm-start pass will pre-warm.")
		p.Sample("qcongest_store_warmup_target", "", float64(st.WarmupTarget))
		p.Family("qcongest_store_warmup_done", "gauge", "Graphs pre-warmed so far.")
		p.Sample("qcongest_store_warmup_done", "", float64(st.WarmupDone))
		p.Family("qcongest_store_warm_start_hits_total", "counter", "Warm reads served against pre-warmed graphs.")
		p.Sample("qcongest_store_warm_start_hits_total", "", float64(st.WarmStartHits))
	}

	if rp := snap.Replication; rp != nil {
		p.Family("qcongest_replication_follower", "gauge", "1 when this node is a read-only follower, 0 for a leader.")
		follower := 0.0
		if rp.Role == "follower" {
			follower = 1
		}
		p.Sample("qcongest_replication_follower", "", follower)
		p.Family("qcongest_replication_seq", "gauge", "This node's replication position (leader head, or follower catch-up cursor).")
		p.Sample("qcongest_replication_seq", "", float64(rp.Seq))
		if rp.Role == "follower" {
			p.Family("qcongest_replication_leader_seq", "gauge", "The leader's last reported head sequence.")
			p.Sample("qcongest_replication_leader_seq", "", float64(rp.LeaderSeq))
			p.Family("qcongest_replication_lag_seq", "gauge", "Sequence steps this follower trails its leader by.")
			p.Sample("qcongest_replication_lag_seq", "", float64(rp.SeqDelta))
			p.Family("qcongest_replication_applied_total", "counter", "Graphs applied from the replication stream since boot.")
			p.Sample("qcongest_replication_applied_total", "", float64(rp.AppliedGraphs))
			p.Family("qcongest_replication_skipped_total", "counter", "Stream records skipped as duplicates or non-graph kinds.")
			p.Sample("qcongest_replication_skipped_total", "", float64(rp.SkippedRecords))
			p.Family("qcongest_replication_rejected_total", "counter", "Stream records refused by CRC, digest, or sequence verification.")
			p.Sample("qcongest_replication_rejected_total", "", float64(rp.RejectedRecords))
			p.Family("qcongest_replication_stream_errors_total", "counter", "Failed catch-up rounds (transport, non-200, torn stream).")
			p.Sample("qcongest_replication_stream_errors_total", "", float64(rp.StreamErrors))
		}
	}

	p.Serve(w)
}
