package cluster

// The router's /metrics: the JSON snapshot by default, the Prometheus
// exposition format under the same content negotiation the daemons use
// (?format=prometheus, or an Accept asking for text/plain/OpenMetrics),
// with every family under the qrouter_ namespace so a scrape of the
// whole cluster never collides with the daemons' qcongest_ families.

import (
	"net/http"
	"time"

	"qcongest/internal/prom"
)

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if prom.WantsText(r) {
		rt.writePromText(w)
		return
	}
	writeJSON(w, http.StatusOK, rt.snapshot())
}

func (rt *Router) snapshot() RouterMetrics {
	st := rt.state.Load()
	m := RouterMetrics{
		UptimeSeconds:   time.Since(rt.start).Seconds(),
		Epoch:           st.epoch,
		Promotions:      rt.promotions.Load(),
		Demotions:       rt.demotions.Load(),
		Adoptions:       rt.adoptions.Load(),
		PromoteFails:    rt.promoteFails.Load(),
		LastPromotionMs: rt.lastPromotionMs.Load(),
	}
	for si, s := range st.topo.Shards {
		stats := st.stats[si]
		m.Shards = append(m.Shards, ShardMetrics{
			Name:          s.Name,
			Writes:        stats.writes.Load(),
			WriteSheds:    stats.writeSheds.Load(),
			Reads:         stats.reads.Load(),
			ReadFailovers: stats.readFailovers.Load(),
			ReadFailures:  stats.readFailures.Load(),
		})
	}
	for si, s := range st.topo.Shards {
		for ni, p := range st.shards[si] {
			role := "follower"
			if ni == 0 {
				role = "leader"
			}
			m.Peers = append(m.Peers, PeerMetrics{
				URL:        p.url,
				Shard:      s.Name,
				Role:       role,
				Forwards:   p.forwards.Load(),
				Errors:     p.errors.Load(),
				Probes:     p.probes.Load(),
				ProbeFails: p.probeFails.Load(),
				Ready:      p.ready.Load(),
				Alive:      p.alive.Load(),
				Epoch:      p.repEpoch.Load(),
				Seq:        p.repSeq.Load(),
			})
		}
	}
	return m
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (rt *Router) writePromText(w http.ResponseWriter) {
	snap := rt.snapshot()
	var p prom.Buf

	p.Family("qrouter_uptime_seconds", "gauge", "Seconds since the router started.")
	p.Sample("qrouter_uptime_seconds", "", snap.UptimeSeconds)

	p.Family("qrouter_topology_epoch", "gauge", "Leadership generation of the live topology.")
	p.Sample("qrouter_topology_epoch", "", float64(snap.Epoch))
	p.Family("qrouter_promotions_total", "counter", "Followers auto-promoted to shard leader.")
	p.Sample("qrouter_promotions_total", "", float64(snap.Promotions))
	p.Family("qrouter_demotions_total", "counter", "Stale leaders demoted back to followers.")
	p.Sample("qrouter_demotions_total", "", float64(snap.Demotions))
	p.Family("qrouter_adoptions_total", "counter", "Higher-epoch leaders adopted into the topology.")
	p.Sample("qrouter_adoptions_total", "", float64(snap.Adoptions))
	p.Family("qrouter_promote_fails_total", "counter", "Promotion attempts that did not end in a 200.")
	p.Sample("qrouter_promote_fails_total", "", float64(snap.PromoteFails))
	p.Family("qrouter_last_promotion_ms", "gauge", "Wall-clock cost of the most recent promotion, election to ack.")
	p.Sample("qrouter_last_promotion_ms", "", float64(snap.LastPromotionMs))

	p.Family("qrouter_shard_writes_total", "counter", "Uploads routed to the shard leader.")
	for _, s := range snap.Shards {
		p.Sample("qrouter_shard_writes_total", prom.Labels("shard", s.Name), float64(s.Writes))
	}
	p.Family("qrouter_shard_write_sheds_total", "counter", "Uploads shed with 503 because the shard leader was down.")
	for _, s := range snap.Shards {
		p.Sample("qrouter_shard_write_sheds_total", prom.Labels("shard", s.Name), float64(s.WriteSheds))
	}
	p.Family("qrouter_shard_reads_total", "counter", "Read requests routed into the shard.")
	for _, s := range snap.Shards {
		p.Sample("qrouter_shard_reads_total", prom.Labels("shard", s.Name), float64(s.Reads))
	}
	p.Family("qrouter_shard_read_failovers_total", "counter", "Reads that had to try more than one node.")
	for _, s := range snap.Shards {
		p.Sample("qrouter_shard_read_failovers_total", prom.Labels("shard", s.Name), float64(s.ReadFailovers))
	}
	p.Family("qrouter_shard_read_failures_total", "counter", "Reads that exhausted every node of the shard.")
	for _, s := range snap.Shards {
		p.Sample("qrouter_shard_read_failures_total", prom.Labels("shard", s.Name), float64(s.ReadFailures))
	}

	p.Family("qrouter_peer_forwards_total", "counter", "Requests proxied to the daemon.")
	for _, pe := range snap.Peers {
		p.Sample("qrouter_peer_forwards_total", prom.Labels("peer", pe.URL), float64(pe.Forwards))
	}
	p.Family("qrouter_peer_errors_total", "counter", "Proxied requests that failed (transport or 5xx).")
	for _, pe := range snap.Peers {
		p.Sample("qrouter_peer_errors_total", prom.Labels("peer", pe.URL), float64(pe.Errors))
	}
	p.Family("qrouter_peer_probes_total", "counter", "Health probes sent to the daemon.")
	for _, pe := range snap.Peers {
		p.Sample("qrouter_peer_probes_total", prom.Labels("peer", pe.URL), float64(pe.Probes))
	}
	p.Family("qrouter_peer_probe_fails_total", "counter", "Health probes that did not answer 200.")
	for _, pe := range snap.Peers {
		p.Sample("qrouter_peer_probe_fails_total", prom.Labels("peer", pe.URL), float64(pe.ProbeFails))
	}
	p.Family("qrouter_peer_ready", "gauge", "1 when the daemon's last probe answered 200.")
	for _, pe := range snap.Peers {
		p.Sample("qrouter_peer_ready", prom.Labels("peer", pe.URL), boolGauge(pe.Ready))
	}
	p.Family("qrouter_peer_alive", "gauge", "1 when the daemon's last probe got any HTTP answer.")
	for _, pe := range snap.Peers {
		p.Sample("qrouter_peer_alive", prom.Labels("peer", pe.URL), boolGauge(pe.Alive))
	}

	p.Serve(w)
}
