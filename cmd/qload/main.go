// Command qload is the load generator for qcongestd: it registers a
// workload graph, fires a configurable request mix at the daemon from
// concurrent workers, and reports sustained throughput and latency
// quantiles (optionally as JSON with -out).
//
// Mixes:
//
//	warm   primes one sketch and the exact metrics, then issues only
//	       cache-hit reads (diameter/radius/eccentricity/sketch on the
//	       primed key) — the steady-state serving regime.
//	cold   every request is a sketch with a fresh source set, so every
//	       request is a build and the cache churns under eviction.
//	mixed  80% warm reads, 20% cold builds — the admission-control
//	       regime where builds must not starve reads.
//	cluster drives a qrouter front door instead of one daemon: uploads
//	       -graphs distinct graphs through the router, walks the live
//	       topology from /v1/cluster and asserts every replica of the
//	       owning shard answers byte-identical sketch numerators and
//	       exact metrics (the replication parity contract), then runs a
//	       timed read phase through the router where any 5xx fails the
//	       run — the zero-read-loss assertion behind the kill/revive
//	       smoke.
//	ingest every request is a graph upload: qload generates one
//	       workload graph client-side (-edges edges), pre-encodes it
//	       once per requested -codec (json, text, binary), and replays
//	       that body -requests times per codec, reporting edges/sec
//	       and MB/sec per codec. Before the timed runs it uploads the
//	       graph through every codec once and asserts all answer the
//	       same digest with byte-identical sketch numerators — the
//	       cross-codec parity contract, live against the daemon.
//
// qload exits non-zero if any request draws a 5xx or if no request
// succeeds, which is what the CI smoke step asserts.
//
// With -expectrestart the warm mix becomes restart-aware: qload asserts
// its workload graph was recovered by the daemon from a durable data
// dir (the registration answers Created == false) instead of being
// created fresh — the client half of the crash-recovery smoke: boot
// with -data-dir, load, SIGKILL, reboot, re-run qload -expectrestart.
//
// -apikey attributes the run's traffic to one API key (the daemon's
// per-key rate limits and quotas apply); 429s are tallied separately
// as rateLimited429 and count as back-pressure, not failures.
// -expectreqid asserts the observability contract request by request:
// any response without an X-Request-Id header fails the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// ingestReport is one codec's leg of an ingest-mix run.
type ingestReport struct {
	// Codec is the wire form this leg replayed: json (legacy wrapper),
	// text (raw edge list), or binary.
	Codec string `json:"codec"`
	// Uploads is the number of completed upload requests.
	Uploads int64 `json:"uploads"`
	// EdgesPerUpload and BodyBytes describe the one pre-encoded body
	// every request carried.
	EdgesPerUpload int     `json:"edgesPerUpload"`
	BodyBytes      int     `json:"bodyBytes"`
	BytesPerEdge   float64 `json:"bytesPerEdge"`
	// EdgesPerSec is the sustained decode rate: edges the daemon
	// parsed, validated, and digest-addressed per second.
	EdgesPerSec float64 `json:"edgesPerSec"`
	// WireMBPerSec is raw request-body throughput (this codec's bytes).
	WireMBPerSec float64 `json:"wireMBPerSec"`
	// TextMBPerSec prices the same edge stream at the text codec's
	// byte cost — the codec-neutral ingest rate, comparable across
	// legs (for text itself it equals WireMBPerSec).
	TextMBPerSec    float64 `json:"textEquivalentMBPerSec"`
	DurationSeconds float64 `json:"durationSeconds"`
	P50Ms           float64 `json:"p50Ms"`
	P99Ms           float64 `json:"p99Ms"`
}

// report is the JSON summary (-out) of one run.
type report struct {
	Mix             string  `json:"mix"`
	Concurrency     int     `json:"concurrency"`
	Requests        int64   `json:"requests"`
	Errors4xx       int64   `json:"errors4xx"`
	Errors5xx       int64   `json:"errors5xx"`
	Saturated503    int64   `json:"saturated503"`
	RateLimited429  int64   `json:"rateLimited429"`
	DurationSeconds float64 `json:"durationSeconds"`
	QPS             float64 `json:"qps"`
	P50Ms           float64 `json:"p50Ms"`
	P99Ms           float64 `json:"p99Ms"`
	CacheHitRate    float64 `json:"cacheHitRate"`
	// Ingest holds the per-codec legs of an ingest-mix run (absent for
	// the read mixes).
	Ingest []ingestReport `json:"ingest,omitempty"`
	// Cluster holds the topology/parity section of a cluster-mix run.
	Cluster *clusterReport `json:"cluster,omitempty"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
		mix      = flag.String("mix", "warm", "request mix: warm, cold, or mixed")
		conc     = flag.Int("c", 8, "concurrent workers")
		requests = flag.Int("requests", 200, "total requests (ignored when -duration > 0)")
		duration = flag.Duration("duration", 0, "run for a fixed wall-clock time instead of a request count")
		n        = flag.Int("n", 256, "workload graph size")
		seed     = flag.Int64("seed", 1, "workload seed")
		out      = flag.String("out", "", "write the JSON report to this file")
		expectRe = flag.Bool("expectrestart", false, "assert the workload graph was recovered from a durable data dir, not created fresh")
		apiKey   = flag.String("apikey", "", "X-API-Key for every request (empty shares the daemon's anonymous bucket)")
		expectID = flag.Bool("expectreqid", false, "fail the run if any response arrives without an X-Request-Id header")
		codecs   = flag.String("codec", "binary", "comma-separated upload codecs for the ingest mix: json, text, binary")
		edges    = flag.Int("edges", 65536, "ingest workload graph edge count (ingest mix only; nodes = edges/8)")
		order    = flag.String("order", "sorted", "ingest workload edge insertion order: sorted (the canonical bulk-export layout, where the binary codec omits its permutation section) or random")
		nGraphs  = flag.Int("graphs", 8, "cluster mix: distinct workload graphs uploaded through the router")
	)
	flag.Parse()
	switch *mix {
	case "warm", "cold", "mixed":
	case "cluster":
		runCluster(clusterConfig{
			addr: *addr, graphs: *nGraphs, n: *n, requests: *requests,
			conc: *conc, seed: *seed, out: *out, apiKey: *apiKey, expectID: *expectID,
		})
		return
	case "ingest":
		runIngest(ingestConfig{
			addr: *addr, codecs: strings.Split(*codecs, ","), edges: *edges,
			order: *order, requests: *requests, conc: *conc, seed: *seed,
			out: *out, apiKey: *apiKey, expectID: *expectID, expectRestart: *expectRe,
		})
		return
	default:
		log.Fatalf("qload: unknown -mix %q", *mix)
	}
	client := svc.NewClient(*addr)
	client.APIKey = *apiKey
	client.RequireRequestID = *expectID
	waitHealthy(client)

	// Registration is idempotent on the digest, so re-running against a
	// daemon that recovered the graph from disk answers Created=false.
	up, err := client.Generate(svc.GenSpec{Kind: "lowdiameter", N: *n, AvgDeg: 4, MaxW: 16, Seed: *seed})
	if err != nil {
		log.Fatalf("qload: registering workload graph: %v", err)
	}
	if *expectRe && up.Created {
		log.Fatalf("qload: FAILED — expected the daemon to have recovered graph %s from its data dir, but it was created fresh", up.Digest)
	}
	digest := up.Digest
	warmSketch := svc.SketchRequest{Sources: []int{0, 1, 2, 3}, L: 8, K: 4}

	// Prime the warm paths so the warm mix measures steady state.
	if *mix != "cold" {
		if _, err := client.Diameter(digest); err != nil {
			log.Fatalf("qload: priming metrics: %v", err)
		}
		if _, err := client.Sketch(digest, warmSketch); err != nil {
			log.Fatalf("qload: priming sketch: %v", err)
		}
	}

	var (
		next                     atomic.Int64
		err4, err5, sat, limited atomic.Int64
		deadline                 time.Time
	)
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	stop := func(i int64) bool {
		if *duration > 0 {
			return time.Now().After(deadline)
		}
		return i >= int64(*requests)
	}

	// coldSketch derives a distinct source set (hence a distinct cache
	// key) from the request index.
	coldSketch := func(i int64) svc.SketchRequest {
		base := int(i % int64(*n))
		return svc.SketchRequest{
			Sources: []int{base, (base + 7) % *n, (base + 13) % *n},
			L:       8,
			K:       3,
		}
	}

	oneRequest := func(i int64) error {
		kind := i % 10
		switch *mix {
		case "cold":
			_, err := client.Sketch(digest, coldSketch(i))
			return err
		case "mixed":
			if kind < 2 {
				_, err := client.Sketch(digest, coldSketch(i))
				return err
			}
		}
		switch kind % 4 {
		case 0:
			_, err := client.Diameter(digest)
			return err
		case 1:
			_, err := client.Radius(digest)
			return err
		case 2:
			_, err := client.Eccentricity(digest, int(i)%*n)
			return err
		default:
			_, err := client.Sketch(digest, warmSketch)
			return err
		}
	}

	latencies := make([][]time.Duration, *conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stop(i) {
					return
				}
				t0 := time.Now()
				err := oneRequest(i)
				latencies[w] = append(latencies[w], time.Since(t0))
				var se *svc.StatusError
				if errors.As(err, &se) {
					switch {
					case se.Code == 503:
						sat.Add(1)
					case se.Code == 429:
						// Back-pressure, not breakage: the daemon shed this
						// key's overflow exactly as configured.
						limited.Add(1)
					case se.Code >= 500:
						err5.Add(1)
					default:
						err4.Add(1)
					}
				} else if err != nil {
					err5.Add(1) // transport failure: treat as a server-side loss
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(q * float64(len(all)-1))
		return float64(all[idx]) / float64(time.Millisecond)
	}

	rep := report{
		Mix:             *mix,
		Concurrency:     *conc,
		Requests:        int64(len(all)),
		Errors4xx:       err4.Load(),
		Errors5xx:       err5.Load(),
		Saturated503:    sat.Load(),
		RateLimited429:  limited.Load(),
		DurationSeconds: elapsed.Seconds(),
		QPS:             float64(len(all)) / elapsed.Seconds(),
		P50Ms:           quantile(0.50),
		P99Ms:           quantile(0.99),
	}
	if m, err := client.Metrics(); err == nil {
		rep.CacheHitRate = m.Cache.HitRate
	}

	fmt.Printf("qload %s: %d requests in %.2fs — %.1f qps, p50 %.3fms, p99 %.3fms (4xx=%d 5xx=%d 503=%d 429=%d, cache hit rate %.3f)\n",
		rep.Mix, rep.Requests, rep.DurationSeconds, rep.QPS, rep.P50Ms, rep.P99Ms,
		rep.Errors4xx, rep.Errors5xx, rep.Saturated503, rep.RateLimited429, rep.CacheHitRate)

	if *out != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			log.Fatalf("qload: writing %s: %v", *out, err)
		}
	}
	success := rep.Requests - rep.Errors4xx - rep.Errors5xx - rep.Saturated503 - rep.RateLimited429
	if rep.Errors5xx > 0 {
		log.Fatalf("qload: FAILED — %d requests drew 5xx", rep.Errors5xx)
	}
	if success <= 0 {
		log.Fatalf("qload: FAILED — no request succeeded")
	}
}

// ingestConfig carries the flag surface of one ingest-mix run.
type ingestConfig struct {
	addr          string
	codecs        []string
	edges         int
	order         string
	requests      int
	conc          int
	seed          int64
	out           string
	apiKey        string
	expectID      bool
	expectRestart bool
}

// runIngest drives the ingest mix: one client-side workload graph,
// pre-encoded once per codec, replayed -requests times per codec so the
// daemon decodes, validates, and digest-addresses the same edge stream
// under every wire form. The timed legs never re-encode — the
// measurement is the server-side ingest path, not the client encoder.
func runIngest(cfg ingestConfig) {
	client := svc.NewClient(cfg.addr)
	client.APIKey = cfg.apiKey
	client.RequireRequestID = cfg.expectID
	waitHealthy(client)

	// The workload graph: connected, average degree ~16, weights in
	// [1, 16]. Edge count is what prices the codecs; topology is not
	// under test here.
	rng := rand.New(rand.NewSource(cfg.seed))
	n := cfg.edges / 8
	if n < 16 {
		n = 16
	}
	if cfg.edges < n {
		log.Fatalf("qload: -edges %d below the minimum %d", cfg.edges, n)
	}
	g := graph.RandomWeights(graph.RandomConnected(n, cfg.edges, rng), 16, rng)
	switch cfg.order {
	case "sorted":
		// Re-insert the edges in sorted (u, v) order — the layout every
		// bulk exporter produces, including this service's own binary
		// download. FormatBinary detects it and omits the permutation
		// section, so this leg measures the canonical fast path; -order
		// random keeps the generator's arbitrary order and prices the
		// permuted decode instead.
		es := append([]graph.Edge(nil), g.Edges()...)
		sort.Slice(es, func(i, j int) bool {
			if es[i].U != es[j].U {
				return es[i].U < es[j].U
			}
			return es[i].V < es[j].V
		})
		sg := graph.New(g.N())
		for _, e := range es {
			sg.MustAddEdge(e.U, e.V, e.W)
		}
		g = sg
	case "random":
	default:
		log.Fatalf("qload: unknown -order %q (want sorted or random)", cfg.order)
	}
	m := g.M()
	textBytes := len(graph.FormatEdgeListVersioned(g))

	type leg struct {
		codec string
		body  []byte
		ct    string
	}
	var legs []leg
	for _, c := range cfg.codecs {
		switch strings.TrimSpace(c) {
		case "json":
			body, err := json.Marshal(svc.UploadRequest{EdgeList: graph.FormatEdgeList(g)})
			if err != nil {
				log.Fatalf("qload: encoding json body: %v", err)
			}
			legs = append(legs, leg{"json", body, "application/json"})
		case "text":
			legs = append(legs, leg{"text", graph.FormatEdgeListVersioned(g), "application/x-qcongest-edgelist"})
		case "binary":
			legs = append(legs, leg{"binary", graph.FormatBinary(g), "application/x-qcongest-graph"})
		default:
			log.Fatalf("qload: unknown -codec %q (want json, text, or binary)", c)
		}
	}

	// Cross-codec parity, live against the daemon: every codec's upload
	// of the same graph must land on the same digest (only the first
	// may create it), and the sketch on that digest must answer
	// byte-identical numerators after each codec's upload.
	var digest string
	var refSketch svc.SketchResponse
	skReq := svc.SketchRequest{Sources: []int{0, 1, 2, 3}, L: 8, K: 4}
	for i, l := range legs {
		up, err := client.UploadRaw(l.body, l.ct)
		if err != nil {
			log.Fatalf("qload: %s parity upload: %v", l.codec, err)
		}
		if i == 0 {
			if cfg.expectRestart && up.Created {
				log.Fatalf("qload: FAILED — expected the daemon to have recovered graph %s from its data dir, but it was created fresh", up.Digest)
			}
			digest = up.Digest
		} else if up.Digest != digest {
			log.Fatalf("qload: FAILED — codec %s answered digest %s where codec %s answered %s for the same graph", l.codec, up.Digest, legs[0].codec, digest)
		} else if up.Created {
			log.Fatalf("qload: FAILED — %s re-upload of digest %s claims it created the graph", l.codec, digest)
		}
		sk, err := client.Sketch(digest, skReq)
		if err != nil {
			log.Fatalf("qload: %s parity sketch: %v", l.codec, err)
		}
		if i == 0 {
			refSketch = sk
		} else if sk.Den != refSketch.Den || !reflect.DeepEqual(sk.Eccentricities, refSketch.Eccentricities) {
			log.Fatalf("qload: FAILED — sketch numerators diverged after the %s upload of digest %s", l.codec, digest)
		}
	}

	rep := report{Mix: "ingest", Concurrency: cfg.conc}
	var totalElapsed float64
	for _, l := range legs {
		var (
			next                     atomic.Int64
			err4, err5, sat, limited atomic.Int64
		)
		latencies := make([][]time.Duration, cfg.conc)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < cfg.conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(cfg.requests) {
						return
					}
					t0 := time.Now()
					_, err := client.UploadRaw(l.body, l.ct)
					latencies[w] = append(latencies[w], time.Since(t0))
					var se *svc.StatusError
					if errors.As(err, &se) {
						switch {
						case se.Code == 503:
							sat.Add(1)
						case se.Code == 429:
							limited.Add(1)
						case se.Code >= 500:
							err5.Add(1)
						default:
							err4.Add(1)
						}
					} else if err != nil {
						err5.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()

		var all []time.Duration
		for _, ls := range latencies {
			all = append(all, ls...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		quantile := func(q float64) float64 {
			if len(all) == 0 {
				return 0
			}
			return float64(all[int(q*float64(len(all)-1))]) / float64(time.Millisecond)
		}
		ups := int64(len(all))
		ir := ingestReport{
			Codec:           l.codec,
			Uploads:         ups,
			EdgesPerUpload:  m,
			BodyBytes:       len(l.body),
			BytesPerEdge:    float64(len(l.body)) / float64(m),
			EdgesPerSec:     float64(m) * float64(ups) / elapsed,
			WireMBPerSec:    float64(len(l.body)) * float64(ups) / elapsed / 1e6,
			TextMBPerSec:    float64(textBytes) * float64(ups) / elapsed / 1e6,
			DurationSeconds: elapsed,
			P50Ms:           quantile(0.50),
			P99Ms:           quantile(0.99),
		}
		rep.Ingest = append(rep.Ingest, ir)
		rep.Requests += ups
		rep.Errors4xx += err4.Load()
		rep.Errors5xx += err5.Load()
		rep.Saturated503 += sat.Load()
		rep.RateLimited429 += limited.Load()
		totalElapsed += elapsed

		fmt.Printf("qload ingest %-6s: %d uploads x %d edges (%.2f B/edge) in %.2fs — %.0f edges/sec, %.1f MB/s wire (%.1f MB/s text-equivalent), p50 %.1fms, p99 %.1fms\n",
			ir.Codec, ir.Uploads, ir.EdgesPerUpload, ir.BytesPerEdge, ir.DurationSeconds,
			ir.EdgesPerSec, ir.WireMBPerSec, ir.TextMBPerSec, ir.P50Ms, ir.P99Ms)
	}
	rep.DurationSeconds = totalElapsed
	if rep.DurationSeconds > 0 {
		rep.QPS = float64(rep.Requests) / rep.DurationSeconds
	}

	if cfg.out != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			log.Fatalf("qload: writing %s: %v", cfg.out, err)
		}
	}
	// Every upload must succeed: a 4xx here means a codec path is
	// broken, not a client mistake.
	if bad := rep.Errors4xx + rep.Errors5xx + rep.Saturated503 + rep.RateLimited429; bad > 0 {
		log.Fatalf("qload: FAILED — %d of %d ingest uploads did not succeed (4xx=%d 5xx=%d 503=%d 429=%d)",
			bad, rep.Requests, rep.Errors4xx, rep.Errors5xx, rep.Saturated503, rep.RateLimited429)
	}
	if rep.Requests == 0 {
		log.Fatalf("qload: FAILED — no request succeeded")
	}
}

// waitHealthy polls /healthz until the daemon answers ok (the CI smoke
// starts qload right after the daemon process).
func waitHealthy(c *svc.Client) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health()
		if err == nil && h.Status == "ok" {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("qload: daemon never became healthy: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
