package cluster

// The router's /metrics: the JSON snapshot by default, the Prometheus
// exposition format under the same content negotiation the daemons use
// (?format=prometheus, or an Accept asking for text/plain/OpenMetrics),
// with every family under the qrouter_ namespace so a scrape of the
// whole cluster never collides with the daemons' qcongest_ families.

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qcongest/internal/svc"
)

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if svc.WantsPromText(r) {
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

var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func promLabel(name, value string) string {
	return "{" + name + `="` + promEscape.Replace(value) + `"}`
}

type promBuf struct{ bytes.Buffer }

func (p *promBuf) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promBuf) sample(name, labels string, v float64) {
	p.WriteString(name)
	p.WriteString(labels)
	p.WriteByte(' ')
	p.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.WriteByte('\n')
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (rt *Router) writePromText(w http.ResponseWriter) {
	snap := rt.snapshot()
	var p promBuf

	p.family("qrouter_uptime_seconds", "gauge", "Seconds since the router started.")
	p.sample("qrouter_uptime_seconds", "", snap.UptimeSeconds)

	p.family("qrouter_topology_epoch", "gauge", "Leadership generation of the live topology.")
	p.sample("qrouter_topology_epoch", "", float64(snap.Epoch))
	p.family("qrouter_promotions_total", "counter", "Followers auto-promoted to shard leader.")
	p.sample("qrouter_promotions_total", "", float64(snap.Promotions))
	p.family("qrouter_demotions_total", "counter", "Stale leaders demoted back to followers.")
	p.sample("qrouter_demotions_total", "", float64(snap.Demotions))
	p.family("qrouter_adoptions_total", "counter", "Higher-epoch leaders adopted into the topology.")
	p.sample("qrouter_adoptions_total", "", float64(snap.Adoptions))
	p.family("qrouter_promote_fails_total", "counter", "Promotion attempts that did not end in a 200.")
	p.sample("qrouter_promote_fails_total", "", float64(snap.PromoteFails))
	p.family("qrouter_last_promotion_ms", "gauge", "Wall-clock cost of the most recent promotion, election to ack.")
	p.sample("qrouter_last_promotion_ms", "", float64(snap.LastPromotionMs))

	p.family("qrouter_shard_writes_total", "counter", "Uploads routed to the shard leader.")
	for _, s := range snap.Shards {
		p.sample("qrouter_shard_writes_total", promLabel("shard", s.Name), float64(s.Writes))
	}
	p.family("qrouter_shard_write_sheds_total", "counter", "Uploads shed with 503 because the shard leader was down.")
	for _, s := range snap.Shards {
		p.sample("qrouter_shard_write_sheds_total", promLabel("shard", s.Name), float64(s.WriteSheds))
	}
	p.family("qrouter_shard_reads_total", "counter", "Read requests routed into the shard.")
	for _, s := range snap.Shards {
		p.sample("qrouter_shard_reads_total", promLabel("shard", s.Name), float64(s.Reads))
	}
	p.family("qrouter_shard_read_failovers_total", "counter", "Reads that had to try more than one node.")
	for _, s := range snap.Shards {
		p.sample("qrouter_shard_read_failovers_total", promLabel("shard", s.Name), float64(s.ReadFailovers))
	}
	p.family("qrouter_shard_read_failures_total", "counter", "Reads that exhausted every node of the shard.")
	for _, s := range snap.Shards {
		p.sample("qrouter_shard_read_failures_total", promLabel("shard", s.Name), float64(s.ReadFailures))
	}

	p.family("qrouter_peer_forwards_total", "counter", "Requests proxied to the daemon.")
	for _, pe := range snap.Peers {
		p.sample("qrouter_peer_forwards_total", promLabel("peer", pe.URL), float64(pe.Forwards))
	}
	p.family("qrouter_peer_errors_total", "counter", "Proxied requests that failed (transport or 5xx).")
	for _, pe := range snap.Peers {
		p.sample("qrouter_peer_errors_total", promLabel("peer", pe.URL), float64(pe.Errors))
	}
	p.family("qrouter_peer_probes_total", "counter", "Health probes sent to the daemon.")
	for _, pe := range snap.Peers {
		p.sample("qrouter_peer_probes_total", promLabel("peer", pe.URL), float64(pe.Probes))
	}
	p.family("qrouter_peer_probe_fails_total", "counter", "Health probes that did not answer 200.")
	for _, pe := range snap.Peers {
		p.sample("qrouter_peer_probe_fails_total", promLabel("peer", pe.URL), float64(pe.ProbeFails))
	}
	p.family("qrouter_peer_ready", "gauge", "1 when the daemon's last probe answered 200.")
	for _, pe := range snap.Peers {
		p.sample("qrouter_peer_ready", promLabel("peer", pe.URL), boolGauge(pe.Ready))
	}
	p.family("qrouter_peer_alive", "gauge", "1 when the daemon's last probe got any HTTP answer.")
	for _, pe := range snap.Peers {
		p.sample("qrouter_peer_alive", promLabel("peer", pe.URL), boolGauge(pe.Alive))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.Bytes())
}
