package cluster

// The replica parity audit: walk the router's live topology and check
// the replication contract against every replica directly. Every graph
// lives on exactly one shard, every node of that shard answers the
// router's diameter and sketch numerators byte for byte, and every live
// replica of a shard converges to one (seq, chain) position. qload
// -mix cluster and the determinism suite both run it.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"time"

	"qcongest/internal/svc"
)

// auditDeadline bounds how long a lagging replica may take to catch up
// with a graph, and a shard's replicas to converge on one chain position.
const auditDeadline = 30 * time.Second

// AuditReport is the outcome of one Audit.
type AuditReport struct {
	// Shards and Nodes describe the topology the router disclosed.
	Shards int `json:"shards"`
	Nodes  int `json:"nodes"`
	// Epoch is the router's topology epoch — 0 on a cluster that never
	// promoted, the leadership generation after self-healing.
	Epoch uint64 `json:"epoch"`
	// ChainShardsVerified counts shards whose live replicas converged
	// to one identical (seq, chain) position — the digest-chain receipt
	// that no acknowledged write was lost or reordered anywhere.
	ChainShardsVerified int `json:"chainShardsVerified"`
	// InMemoryShards counts shards with a node that keeps no
	// replication log (an in-memory daemon), so no chain to compare.
	InMemoryShards int `json:"inMemoryShards"`
	// Graphs is the number of audited graphs.
	Graphs int `json:"graphs"`
	// ParityChecks counts digest×replica comparisons that were verified
	// byte-identical against the router's own answers.
	ParityChecks int `json:"parityChecks"`
	// DeadSkipped counts digest×replica comparisons skipped because the
	// router reports the replica down (expected mid-fault-injection: a
	// killed follower is not a parity violation, its survivors are the
	// ones that must still agree).
	DeadSkipped int `json:"deadSkipped"`
	// LaggingSkipped counts digest×replica comparisons that never
	// converged before the deadline; Audit fails when it is nonzero.
	LaggingSkipped int `json:"laggingSkipped"`
}

// Audit checks the replication contract for graphs (digest → the sketch
// every replica must answer) behind the router that client talks to.
// Replicas are queried with client's HTTP client and API key. The
// report is returned filled in as far as the audit got; the error names
// the first violation.
func Audit(client *svc.Client, graphs map[string]svc.SketchRequest) (AuditReport, error) {
	node := func(url string) *svc.Client {
		c := svc.NewClient(url)
		c.HTTPClient, c.APIKey = client.HTTPClient, client.APIKey
		return c
	}
	info, err := clusterInfo(client)
	if err != nil {
		return AuditReport{}, err
	}
	rep := AuditReport{Shards: len(info.Shards), Graphs: len(graphs), Epoch: info.Epoch}
	for _, s := range info.Shards {
		rep.Nodes += len(s.Nodes)
	}

	// Ownership: each digest must be on exactly one shard's leader.
	owners := map[string]int{}
	for si, s := range info.Shards {
		infos, err := node(s.Leader).Graphs()
		if err != nil {
			return rep, fmt.Errorf("listing shard %s leader: %w", s.Name, err)
		}
		for _, gi := range infos {
			if _, ours := graphs[gi.Digest]; !ours {
				continue // pre-existing graphs are not part of this audit
			}
			if prev, dup := owners[gi.Digest]; dup {
				return rep, fmt.Errorf("digest %s is on shards %s and %s", gi.Digest, info.Shards[prev].Name, s.Name)
			}
			owners[gi.Digest] = si
		}
	}
	if len(owners) != len(graphs) {
		return rep, fmt.Errorf("%d of %d graphs are on some shard leader", len(owners), len(graphs))
	}

	// alive re-reads the router's live view of one node: a replica that
	// dies (or is killed by a fault-injection smoke) mid-audit is
	// skipped, not failed — the survivors are the ones that must agree.
	alive := func(url string) bool {
		fresh, err := clusterInfo(client)
		if err != nil {
			return true // the router itself is the run's failure domain
		}
		for _, s := range fresh.Shards {
			for _, nd := range s.Nodes {
				if nd.URL == url {
					return nd.Alive
				}
			}
		}
		return true
	}

	// Every node of the owning shard — leader and followers alike — must
	// answer the router's own answers byte for byte. Followers get a
	// catch-up deadline; a replica still lagging past it fails the audit.
	digests := make([]string, 0, len(graphs))
	for d := range graphs {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	var lagging error
	deadline := time.Now().Add(auditDeadline)
	for _, d := range digests {
		req := graphs[d]
		dia, err := client.Diameter(d)
		if err != nil {
			return rep, fmt.Errorf("router diameter(%s): %w", d, err)
		}
		sk, err := client.Sketch(d, req)
		if err != nil {
			return rep, fmt.Errorf("router sketch(%s): %w", d, err)
		}
		for _, nd := range info.Shards[owners[d]].Nodes {
			nc := node(nd.URL)
			for {
				ndia, derr := nc.Diameter(d)
				nsk, serr := nc.Sketch(d, req)
				if derr == nil && serr == nil {
					if ndia != dia {
						return rep, fmt.Errorf("%s %s answers diameter %d for %s, router answered %d", nd.Role, nd.URL, ndia, d, dia)
					}
					if nsk.Den != sk.Den || !reflect.DeepEqual(nsk.Eccentricities, sk.Eccentricities) {
						return rep, fmt.Errorf("%s %s answers different sketch numerators for %s than the router", nd.Role, nd.URL, d)
					}
					rep.ParityChecks++
					break
				}
				// Any error — a 404 from a follower still applying the
				// record, or a transport error from a node mid-restart —
				// retries until the deadline, unless the router reports
				// the node down.
				if !alive(nd.URL) {
					rep.DeadSkipped++
					break
				}
				if time.Now().After(deadline) {
					rep.LaggingSkipped++
					lagging = fmt.Errorf("replica %s never served %s (diameter err: %v, sketch err: %v)", nd.URL, d, derr, serr)
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	}
	if lagging != nil {
		return rep, fmt.Errorf("%d digest×replica parity checks never converged; last: %w", rep.LaggingSkipped, lagging)
	}

	// Chain parity: the chain is a running fold over every committed
	// (seq, digest) pair, so equal positions are a receipt that no
	// acknowledged write was lost or reordered — even across a leader
	// kill, auto-promotion, and old-leader re-sync.
	chainDeadline := time.Now().Add(auditDeadline)
	for _, s := range info.Shards {
		for {
			positions := map[string]string{}
			uniq := map[string]bool{}
			settled, inMemory := true, false
			for _, nd := range s.Nodes {
				if !alive(nd.URL) {
					continue // killed mid-smoke: the survivors carry the audit
				}
				h, err := node(nd.URL).Health()
				if err != nil {
					settled = false // mid-restart or lagging; next round retries
					break
				}
				if h.Replication == nil {
					inMemory = true
					break
				}
				positions[nd.URL] = fmt.Sprintf("seq=%d chain=%s", h.Replication.Seq, h.Replication.Chain)
				uniq[positions[nd.URL]] = true
			}
			if inMemory {
				rep.InMemoryShards++
				break
			}
			if settled && len(uniq) == 1 {
				rep.ChainShardsVerified++
				break
			}
			if time.Now().After(chainDeadline) {
				if !settled {
					break // a node never answered its healthz: not audited
				}
				return rep, fmt.Errorf("shard %s replicas never converged to one (seq, chain) position: %v", s.Name, positions)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return rep, nil
}

// clusterInfo fetches the router's live /v1/cluster descriptor.
func clusterInfo(client *svc.Client) (ClusterInfo, error) {
	var info ClusterInfo
	hc := client.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(client.BaseURL + "/v1/cluster")
	if err != nil {
		return info, fmt.Errorf("fetching /v1/cluster: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("fetching /v1/cluster: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, fmt.Errorf("decoding /v1/cluster: %w", err)
	}
	return info, nil
}
