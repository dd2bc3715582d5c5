package svc

// The Prometheus exposition view of /metrics: a small hand-rolled
// text-format (version 0.0.4) encoder over the same lock-free counters
// the JSON snapshot reads, selected by content negotiation
// (handleMetrics). The request-latency histograms are emitted as
// *native* Prometheus histograms — the raw power-of-two buckets,
// cumulative, with _sum and _count — so quantiles come from the
// scraper's histogram_quantile over real buckets instead of this
// daemon's bucket-upper-bound estimate. No client library is linked;
// the format is simple enough that a strict in-repo parser test
// (promtext_test.go) machine-checks every scrape.

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promContentType is the exposition content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsPromText decides the /metrics view for the daemon and the
// router alike: ?format=prometheus (or json) wins, then an Accept
// header asking for text/plain or OpenMetrics — what every Prometheus
// scraper sends. The default stays JSON so older clients keep working
// unchanged.
func WantsPromText(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// promEscape escapes a label value per the exposition format.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders pairs of (name, value) as a {…} label block.
func promLabels(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(promEscape.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promBuf accumulates one exposition payload.
type promBuf struct{ bytes.Buffer }

// family writes the # HELP / # TYPE preamble of one metric family.
func (p *promBuf) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels is "" or a promLabels block.
func (p *promBuf) sample(name, labels string, v float64) {
	p.WriteString(name)
	p.WriteString(labels)
	p.WriteByte(' ')
	p.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.WriteByte('\n')
}

// writePromText renders the full exposition payload. Families and
// label sets are emitted in deterministic order so scrapes diff
// cleanly and the parser test can make exact assertions.
func (s *Server) writePromText(w http.ResponseWriter) {
	var p promBuf
	snap := s.snapshot()

	p.family("qcongest_uptime_seconds", "gauge", "Seconds since the daemon started.")
	p.sample("qcongest_uptime_seconds", "", snap.UptimeSeconds)
	p.family("qcongest_registry_graphs", "gauge", "Graphs resident in the registry.")
	p.sample("qcongest_registry_graphs", "", float64(snap.Graphs))

	p.family("qcongest_cache_hits_total", "counter", "Sketch lookups answered from a completed cache entry.")
	p.sample("qcongest_cache_hits_total", "", float64(snap.Cache.Hits))
	p.family("qcongest_cache_misses_total", "counter", "Sketch lookups that triggered a build.")
	p.sample("qcongest_cache_misses_total", "", float64(snap.Cache.Misses))
	p.family("qcongest_cache_waits_total", "counter", "Sketch lookups deduplicated onto an in-flight build.")
	p.sample("qcongest_cache_waits_total", "", float64(snap.Cache.Waits))
	p.family("qcongest_cache_evictions_total", "counter", "Sketch cache LRU evictions.")
	p.sample("qcongest_cache_evictions_total", "", float64(snap.Cache.Evictions))
	p.family("qcongest_cache_entries", "gauge", "Resident sketch cache entries, including in-flight builds.")
	p.sample("qcongest_cache_entries", "", float64(snap.Cache.Size))

	p.family("qcongest_gate_slots_in_use", "gauge", "Admission gate occupancy by gate.")
	p.sample("qcongest_gate_slots_in_use", promLabels("gate", "build"), float64(snap.BuildSlotsInUse))
	p.sample("qcongest_gate_slots_in_use", promLabels("gate", "query"), float64(snap.QuerySlotsInUse))

	p.family("qcongest_requests_total", "counter", "Completed requests by class.")
	for _, class := range allClasses {
		p.sample("qcongest_requests_total", promLabels("class", class), float64(snap.Requests[class].Count))
	}
	p.family("qcongest_request_errors_total", "counter", "Completed requests with error statuses, by class and family.")
	for _, class := range allClasses {
		p.sample("qcongest_request_errors_total", promLabels("class", class, "family", "4xx"), float64(snap.Requests[class].Errors4x))
		p.sample("qcongest_request_errors_total", promLabels("class", class, "family", "5xx"), float64(snap.Requests[class].Errors5x))
	}
	p.family("qcongest_requests_in_flight", "gauge", "Requests currently executing, by class.")
	for _, class := range allClasses {
		p.sample("qcongest_requests_in_flight", promLabels("class", class), float64(snap.Requests[class].InFlight))
	}

	// The native histograms: cumulative power-of-two buckets straight
	// from the lock-free ledger, le in seconds. Bucket i of the ledger
	// counts [2^i, 2^(i+1)) µs, so its cumulative upper bound is
	// 2^(i+1) µs; the top bucket absorbs everything beyond the range,
	// making +Inf equal to the running total by construction.
	p.family("qcongest_request_duration_seconds", "histogram", "Request latency by class.")
	for _, class := range allClasses {
		c := s.metrics.class(class)
		var cum int64
		for i := 0; i < latencyBuckets; i++ {
			cum += c.hist[i].Load()
			le := strconv.FormatFloat(float64(uint64(1)<<uint(i+1))/1e6, 'g', -1, 64)
			p.sample("qcongest_request_duration_seconds_bucket", promLabels("class", class, "le", le), float64(cum))
		}
		p.sample("qcongest_request_duration_seconds_bucket", promLabels("class", class, "le", "+Inf"), float64(cum))
		p.sample("qcongest_request_duration_seconds_sum", promLabels("class", class), float64(c.sumUs.Load())/1e6)
		p.sample("qcongest_request_duration_seconds_count", promLabels("class", class), float64(cum))
	}

	if len(snap.RateLimits) > 0 {
		keys := make([]string, 0, len(snap.RateLimits))
		for key := range snap.RateLimits {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		p.family("qcongest_key_requests_total", "counter", "Per-API-key admission outcomes.")
		for _, key := range keys {
			k := snap.RateLimits[key]
			p.sample("qcongest_key_requests_total", promLabels("key", key, "result", "allowed"), float64(k.Allowed))
			p.sample("qcongest_key_requests_total", promLabels("key", key, "result", "limited"), float64(k.Limited))
		}
		p.family("qcongest_key_graphs", "gauge", "Graphs created per API key (the quota ledger).")
		for _, key := range keys {
			p.sample("qcongest_key_graphs", promLabels("key", key), float64(snap.RateLimits[key].Graphs))
		}
	}

	if st := snap.Store; st != nil {
		p.family("qcongest_store_graphs", "gauge", "Graphs resident in the durable store.")
		p.sample("qcongest_store_graphs", "", float64(st.Graphs))
		p.family("qcongest_store_appends_total", "counter", "Durable graph commits since boot.")
		p.sample("qcongest_store_appends_total", "", float64(st.Appends))
		p.family("qcongest_store_touches_total", "counter", "Recorded query-recency hints since boot.")
		p.sample("qcongest_store_touches_total", "", float64(st.Touches))
		p.family("qcongest_store_snapshots_total", "counter", "Log-to-snapshot folds since boot.")
		p.sample("qcongest_store_snapshots_total", "", float64(st.Snapshots))
		p.family("qcongest_store_wal_bytes", "gauge", "Active append-only log size.")
		p.sample("qcongest_store_wal_bytes", "", float64(st.WALBytes))
		p.family("qcongest_store_snapshot_bytes", "gauge", "Latest snapshot size.")
		p.sample("qcongest_store_snapshot_bytes", "", float64(st.SnapshotBytes))
		p.family("qcongest_store_recovered_graphs", "gauge", "Graphs replayed at boot.")
		p.sample("qcongest_store_recovered_graphs", "", float64(st.RecoveredGraphs))
		p.family("qcongest_store_quarantined_records", "gauge", "Boot-time digest/checksum verification casualties.")
		p.sample("qcongest_store_quarantined_records", "", float64(st.QuarantinedRecords))
		p.family("qcongest_store_replay_seconds", "gauge", "Boot-time recovery duration.")
		p.sample("qcongest_store_replay_seconds", "", st.ReplayMs/1000)
		p.family("qcongest_store_warmup_target", "gauge", "Graphs the warm-start pass will pre-warm.")
		p.sample("qcongest_store_warmup_target", "", float64(st.WarmupTarget))
		p.family("qcongest_store_warmup_done", "gauge", "Graphs pre-warmed so far.")
		p.sample("qcongest_store_warmup_done", "", float64(st.WarmupDone))
		p.family("qcongest_store_warm_start_hits_total", "counter", "Warm reads served against pre-warmed graphs.")
		p.sample("qcongest_store_warm_start_hits_total", "", float64(st.WarmStartHits))
	}

	if rp := snap.Replication; rp != nil {
		p.family("qcongest_replication_follower", "gauge", "1 when this node is a read-only follower, 0 for a leader.")
		follower := 0.0
		if rp.Role == "follower" {
			follower = 1
		}
		p.sample("qcongest_replication_follower", "", follower)
		p.family("qcongest_replication_seq", "gauge", "This node's replication position (leader head, or follower catch-up cursor).")
		p.sample("qcongest_replication_seq", "", float64(rp.Seq))
		if rp.Role == "follower" {
			p.family("qcongest_replication_leader_seq", "gauge", "The leader's last reported head sequence.")
			p.sample("qcongest_replication_leader_seq", "", float64(rp.LeaderSeq))
			p.family("qcongest_replication_lag_seq", "gauge", "Sequence steps this follower trails its leader by.")
			p.sample("qcongest_replication_lag_seq", "", float64(rp.SeqDelta))
			p.family("qcongest_replication_applied_total", "counter", "Graphs applied from the replication stream since boot.")
			p.sample("qcongest_replication_applied_total", "", float64(rp.AppliedGraphs))
			p.family("qcongest_replication_skipped_total", "counter", "Stream records skipped as duplicates or non-graph kinds.")
			p.sample("qcongest_replication_skipped_total", "", float64(rp.SkippedRecords))
			p.family("qcongest_replication_rejected_total", "counter", "Stream records refused by CRC, digest, or sequence verification.")
			p.sample("qcongest_replication_rejected_total", "", float64(rp.RejectedRecords))
			p.family("qcongest_replication_stream_errors_total", "counter", "Failed catch-up rounds (transport, non-200, torn stream).")
			p.sample("qcongest_replication_stream_errors_total", "", float64(rp.StreamErrors))
		}
	}

	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.Bytes())
}
