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
//	       -graphs distinct graphs through the router, runs the
//	       cluster.Audit replica parity check over the live topology,
//	       then runs a timed read phase through the router where any
//	       5xx fails the run — the zero-read-loss assertion behind the
//	       kill/revive smoke.
//	ingest every request is a graph upload: qload generates one
//	       workload graph client-side (-edges edges), pre-encodes it
//	       once per requested -codec (json, text, binary), and replays
//	       the bodies in turn, -requests times per codec. Before the
//	       timed run it uploads the graph through every codec once and
//	       asserts all answer the same digest with byte-identical sketch
//	       numerators — the cross-codec parity contract, live against
//	       the daemon. Every upload must succeed.
//
// qload exits non-zero if any request draws a 5xx or if no request
// succeeds, which is what the CI smoke step asserts. Every request
// carries a fixed timeout (requestTimeout), so an unresponsive node
// fails the run instead of holding it.
//
// With -expectrestart the warm and ingest mixes become restart-aware:
// qload asserts its workload graph was recovered by the daemon from a
// durable data dir (the registration answers Created == false) instead
// of being created fresh — the client half of the crash-recovery smoke:
// boot with -data-dir, load, SIGKILL, reboot, re-run qload
// -expectrestart.
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
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// requestTimeout bounds every request qload sends, well above its
// slowest CI request (a 1e5-edge JSON upload).
const requestTimeout = 60 * time.Second

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
	// Cluster holds the replica parity audit of a cluster-mix run.
	Cluster *cluster.AuditReport `json:"cluster,omitempty"`
}

// failures counts the requests that did not succeed.
func (r report) failures() int64 {
	return r.Errors4xx + r.Errors5xx + r.Saturated503 + r.RateLimited429
}

// drive runs conc workers over gen until requests requests are issued
// or, when duration > 0, until duration has passed. It tallies each
// failure by status (a transport error counts as a 5xx) and returns the
// report's counts, rate and quantiles with every latency, sorted.
func drive(conc int, requests int64, duration time.Duration, gen func(i int64) error) (report, []time.Duration) {
	var (
		next                     atomic.Int64
		err4, err5, sat, limited atomic.Int64
		wg                       sync.WaitGroup
	)
	start := time.Now()
	stop := func(i int64) bool {
		if duration > 0 {
			return time.Since(start) >= duration
		}
		return i >= requests
	}
	latencies := make([][]time.Duration, conc)
	for w := range latencies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1) - 1; !stop(i); i = next.Add(1) - 1 {
				t0 := time.Now()
				err := gen(i)
				latencies[w] = append(latencies[w], time.Since(t0))
				var se *svc.StatusError
				switch {
				case err == nil:
				case !errors.As(err, &se):
					err5.Add(1) // transport failure: treat as a server-side loss
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
	return report{
		Concurrency:     conc,
		Requests:        int64(len(all)),
		Errors4xx:       err4.Load(),
		Errors5xx:       err5.Load(),
		Saturated503:    sat.Load(),
		RateLimited429:  limited.Load(),
		DurationSeconds: elapsed,
		QPS:             float64(len(all)) / elapsed,
		P50Ms:           quantile(0.50),
		P99Ms:           quantile(0.99),
	}, all
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
		mix      = flag.String("mix", "warm", "request mix: warm, cold, mixed, cluster, or ingest")
		conc     = flag.Int("c", 8, "concurrent workers")
		requests = flag.Int("requests", 200, "total requests, per codec for ingest (ignored when -duration > 0)")
		duration = flag.Duration("duration", 0, "run for a fixed wall-clock time instead of a request count")
		n        = flag.Int("n", 256, "workload graph size")
		seed     = flag.Int64("seed", 1, "workload seed")
		out      = flag.String("out", "", "write the JSON report to this file")
		expectRe = flag.Bool("expectrestart", false, "assert the workload graph was recovered from a durable data dir, not created fresh")
		apiKey   = flag.String("apikey", "", "X-API-Key for every request (empty shares the daemon's anonymous bucket)")
		expectID = flag.Bool("expectreqid", false, "fail the run if any response arrives without an X-Request-Id header")
		codecs   = flag.String("codec", "binary", "comma-separated upload codecs for the ingest mix: json, text, binary")
		edges    = flag.Int("edges", 65536, "ingest workload graph edge count (ingest mix only; nodes = edges/8)")
		nGraphs  = flag.Int("graphs", 8, "cluster mix: distinct workload graphs uploaded through the router")
	)
	flag.Parse()
	client := svc.NewClient(*addr)
	client.HTTPClient = &http.Client{Timeout: requestTimeout}
	client.APIKey = *apiKey
	client.RequireRequestID = *expectID
	waitHealthy(client)

	total := int64(*requests)
	// bad is the mix's pass rule beyond "no 5xx, some success": the
	// count of requests that fail the run.
	var (
		gen   func(i int64) error
		bad   = func(report) int64 { return 0 }
		audit *cluster.AuditReport
	)
	switch *mix {
	case "warm", "cold", "mixed":
		gen = readMix(client, *mix, *n, *seed, *expectRe)
	case "ingest":
		// A 4xx here means a codec path is broken, not a client mistake.
		var legs int
		gen, legs = ingestMix(client, strings.Split(*codecs, ","), *edges, *seed, *expectRe)
		total, bad = total*int64(legs), report.failures
	case "cluster":
		// Reads through the router must succeed: that is the whole point
		// of replica failover.
		gen, audit = clusterMix(client, *nGraphs, *n, *seed)
		bad = func(r report) int64 { return r.Errors4xx + r.Saturated503 }
	default:
		log.Fatalf("qload: unknown -mix %q", *mix)
	}

	rep, _ := drive(*conc, total, *duration, gen)
	rep.Mix, rep.Cluster = *mix, audit
	switch *mix {
	case "warm", "cold", "mixed":
		if m, err := client.Metrics(); err == nil {
			rep.CacheHitRate = m.Cache.HitRate
		}
	}
	fmt.Printf("qload %s: %d requests in %.2fs — %.1f qps, p50 %.3fms, p99 %.3fms (4xx=%d 5xx=%d 503=%d 429=%d, cache hit rate %.3f)\n",
		rep.Mix, rep.Requests, rep.DurationSeconds, rep.QPS, rep.P50Ms, rep.P99Ms,
		rep.Errors4xx, rep.Errors5xx, rep.Saturated503, rep.RateLimited429, rep.CacheHitRate)
	if *out != "" {
		if err := os.WriteFile(*out, encodeReport(rep), 0o644); err != nil {
			log.Fatalf("qload: writing %s: %v", *out, err)
		}
	}
	switch {
	case rep.Errors5xx > 0:
		log.Fatalf("qload: FAILED — %d requests drew 5xx", rep.Errors5xx)
	case bad(rep) > 0:
		log.Fatalf("qload: FAILED — %d of %d requests did not succeed (4xx=%d 503=%d 429=%d)",
			bad(rep), rep.Requests, rep.Errors4xx, rep.Saturated503, rep.RateLimited429)
	case rep.Requests-rep.failures() <= 0:
		log.Fatalf("qload: FAILED — no request succeeded")
	}
}

// encodeReport renders the -out file.
func encodeReport(rep report) []byte {
	raw, _ := json.MarshalIndent(rep, "", "  ")
	return append(raw, '\n')
}

// readMix registers the workload graph, primes the warm paths unless
// the mix is cold, and returns the warm/cold/mixed request generator.
func readMix(client *svc.Client, mix string, n int, seed int64, expectRestart bool) func(i int64) error {
	// Registration is idempotent on the digest, so re-running against a
	// daemon that recovered the graph from disk answers Created=false.
	up, err := client.Generate(svc.GenSpec{Kind: "lowdiameter", N: n, AvgDeg: 4, MaxW: 16, Seed: seed})
	if err != nil {
		log.Fatalf("qload: registering workload graph: %v", err)
	}
	checkRecovered(up, expectRestart)
	digest := up.Digest
	warmSketch := svc.SketchRequest{Sources: []int{0, 1, 2, 3}, L: 8, K: 4}
	if mix != "cold" {
		if _, err := client.Diameter(digest); err != nil {
			log.Fatalf("qload: priming metrics: %v", err)
		}
		if _, err := client.Sketch(digest, warmSketch); err != nil {
			log.Fatalf("qload: priming sketch: %v", err)
		}
	}
	return func(i int64) error {
		var err error
		switch kind := i % 10; {
		case mix == "cold" || mix == "mixed" && kind < 2:
			// A distinct source set (hence a distinct cache key) per index.
			base := int(i % int64(n))
			_, err = client.Sketch(digest, svc.SketchRequest{Sources: []int{base, (base + 7) % n, (base + 13) % n}, L: 8, K: 3})
		case kind%4 == 0:
			_, err = client.Diameter(digest)
		case kind%4 == 1:
			_, err = client.Radius(digest)
		case kind%4 == 2:
			_, err = client.Eccentricity(digest, int(i)%n)
		default:
			_, err = client.Sketch(digest, warmSketch)
		}
		return err
	}
}

// ingestMix generates one workload graph, pre-encodes it once per
// codec, checks cross-codec parity live against the daemon, and returns
// a generator that replays the bodies in turn, plus the codec count.
// The timed requests never re-encode — the measurement is the
// server-side ingest path, not the client encoder.
func ingestMix(client *svc.Client, codecs []string, edges int, seed int64, expectRestart bool) (func(i int64) error, int) {
	// The workload graph: connected, average degree ~16, weights in
	// [1, 16], its edges re-inserted in sorted (u, v) order — the layout
	// every bulk exporter produces, where FormatBinary omits its
	// permutation section.
	rng := rand.New(rand.NewSource(seed))
	n := max(edges/8, 16)
	if edges < n {
		log.Fatalf("qload: -edges %d below the minimum %d", edges, n)
	}
	g := graph.RandomWeights(graph.RandomConnected(n, edges, rng), 16, rng)
	es := append([]graph.Edge(nil), g.Edges()...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	g = graph.New(g.N())
	for _, e := range es {
		g.MustAddEdge(e.U, e.V, e.W)
	}

	type leg struct {
		codec, ct string
		body      []byte
	}
	var legs []leg
	for _, c := range codecs {
		switch c = strings.TrimSpace(c); c {
		case "json":
			body, err := json.Marshal(svc.UploadRequest{EdgeList: string(graph.FormatEdgeList(g))})
			if err != nil {
				log.Fatalf("qload: encoding json body: %v", err)
			}
			legs = append(legs, leg{c, "application/json", body})
		case "text":
			legs = append(legs, leg{c, "application/x-qcongest-edgelist", graph.FormatEdgeListVersioned(g)})
		case "binary":
			legs = append(legs, leg{c, "application/x-qcongest-graph", graph.FormatBinary(g)})
		default:
			log.Fatalf("qload: unknown -codec %q (want json, text, or binary)", c)
		}
	}

	// Cross-codec parity: every codec's upload of the same graph must
	// land on the same digest (only the first may create it), and the
	// sketch on that digest must answer byte-identical numerators after
	// each codec's upload.
	var digest string
	var ref svc.SketchResponse
	skReq := svc.SketchRequest{Sources: []int{0, 1, 2, 3}, L: 8, K: 4}
	for i, l := range legs {
		up, err := client.UploadRaw(l.body, l.ct)
		if err != nil {
			log.Fatalf("qload: %s parity upload: %v", l.codec, err)
		}
		switch {
		case i == 0:
			checkRecovered(up, expectRestart)
			digest = up.Digest
		case up.Digest != digest:
			log.Fatalf("qload: FAILED — codec %s answered digest %s where codec %s answered %s for the same graph", l.codec, up.Digest, legs[0].codec, digest)
		case up.Created:
			log.Fatalf("qload: FAILED — %s re-upload of digest %s claims it created the graph", l.codec, digest)
		}
		sk, err := client.Sketch(digest, skReq)
		if err != nil {
			log.Fatalf("qload: %s parity sketch: %v", l.codec, err)
		}
		if i == 0 {
			ref = sk
		} else if sk.Den != ref.Den || !reflect.DeepEqual(sk.Eccentricities, ref.Eccentricities) {
			log.Fatalf("qload: FAILED — sketch numerators diverged after the %s upload of digest %s", l.codec, digest)
		}
	}
	return func(i int64) error {
		l := legs[i%int64(len(legs))]
		_, err := client.UploadRaw(l.body, l.ct)
		return err
	}, len(legs)
}

// checkRecovered fails the run under -expectrestart when the daemon
// created the workload graph instead of recovering it from disk.
func checkRecovered(up svc.UploadResponse, expectRestart bool) {
	if expectRestart && up.Created {
		log.Fatalf("qload: FAILED — expected the daemon to have recovered graph %s from its data dir, but it was created fresh", up.Digest)
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
