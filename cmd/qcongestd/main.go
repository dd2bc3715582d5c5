// Command qcongestd is the serving daemon: a long-running HTTP/JSON
// service over the graph registry and sketch cache (internal/svc).
// See API.md for the endpoint reference and DESIGN.md §8 for the
// architecture.
//
// Usage:
//
//	qcongestd -addr 127.0.0.1:8080 -cache 64 -buildslots 2
//	qcongestd -addr 127.0.0.1:8080 -data-dir /var/lib/qcongest -warm 8
//	qcongestd -addr 127.0.0.1:8081 -data-dir /var/lib/qc-replica -follow http://127.0.0.1:8080
//
// With -follow the daemon is a read-only replica (DESIGN.md §11): it
// tails the leader's append-only log over GET /v1/replicate, digest-
// verifies every shipped graph before applying it, rejects uploads with
// 403, and fails /healthz readiness when it falls more than -maxlag
// records behind. cmd/qrouter routes cluster reads across replicas.
//
// With -data-dir the registry is durable (DESIGN.md §9): every
// acknowledged upload is fsynced into a crash-safe log before the 2xx,
// a reboot replays the store with digest verification, and -warm K
// pre-warms the exact-metric memos and sketch cache for the K most
// recently queried graphs. A SIGKILLed daemon loses nothing committed;
// a graceful shutdown additionally folds the log into a snapshot.
//
// The daemon drains gracefully on SIGINT/SIGTERM: /healthz flips to
// 503 "draining", in-flight requests finish (up to -draintimeout), the
// store is snapshotted and closed, and the process exits 0.
//
// Observability (DESIGN.md §8.5): /metrics serves both a JSON snapshot
// and the Prometheus exposition format (content-negotiated), /status
// is a self-refreshing operator page, every response carries an
// X-Request-Id, -access-log emits one structured JSON line per
// request, and -pprof exposes net/http/pprof on a separate listener so
// profiling never shares a port with the public API. -ratelimit and
// -tenantgraphs enforce per-API-key token buckets and graph quotas
// (X-API-Key header; absent keys share the "anonymous" bucket).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qcongest/internal/svc"
)

// openAccessLog maps the -access-log flag to a writer: "" disables,
// "-" is stdout, anything else appends to that file.
func openAccessLog(path string) (io.Writer, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return os.Stdout, nil
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// pprofMux builds the profiling handler by hand so only the pprof
// routes exist on that listener — nothing registers on
// http.DefaultServeMux, and the public API handler stays pprof-free.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		cache        = flag.Int("cache", 64, "sketch cache capacity (skeletons)")
		buildSlots   = flag.Int("buildslots", 2, "concurrent cold builds (sketch/batch/first-touch metrics)")
		buildQueue   = flag.Int("buildqueue", 0, "queued cold builds before 503 (0 = 4x buildslots)")
		querySlots   = flag.Int("queryslots", 256, "concurrent warm reads")
		maxGraphs    = flag.Int("maxgraphs", 128, "graph registry capacity")
		maxNodes     = flag.Int("maxnodes", 0, "max nodes per registered graph (0 = 1<<17)")
		maxBatch     = flag.Int("maxbatch", 64, "max jobs per /v1/batch call")
		maxBatchN    = flag.Int("maxbatchnodes", 0, "max graph size per batch APSP job (0 = 4096)")
		drainTimeout = flag.Duration("draintimeout", 15*time.Second, "graceful shutdown deadline")
		dataDir      = flag.String("data-dir", "", "durable store directory (empty = in-memory registry)")
		warm         = flag.Int("warm", 8, "graphs to pre-warm after a persistent boot (0 disables)")
		snapEvery    = flag.Int("snapevery", 0, "graph appends between store snapshots (0 = 64, negative disables)")
		pprofAddr    = flag.String("pprof", "", "net/http/pprof listen address on a separate listener, e.g. 127.0.0.1:6060 (empty disables)")
		ratePerKey   = flag.Float64("ratelimit", 0, "sustained requests/sec per API key on /v1 endpoints; overflow answers 429 (0 disables)")
		rateBurst    = flag.Int("rateburst", 0, "token-bucket burst depth per API key (0 = 2x -ratelimit, min 1)")
		tenantGraphs = flag.Int("tenantgraphs", 0, "graphs one API key may create; beyond it uploads answer 429 (0 disables)")
		accessLog    = flag.String("access-log", "", "structured JSON request log destination: a file path, or - for stdout (empty disables)")
		follow       = flag.String("follow", "", "leader base URL to follow as a read-only replica, e.g. http://127.0.0.1:8080 (empty = standalone/leader)")
		maxLag       = flag.Uint64("maxlag", 0, "replication lag in sequence numbers beyond which /healthz fails readiness (0 = 1024; follower only)")
		replPoll     = flag.Duration("replpoll", 0, "idle pause between replication poll rounds (0 = 250ms; follower only)")
		clusterToken = flag.String("cluster-token", "", "shared secret required as X-Cluster-Token on /v1/promote and /v1/demote (empty = open)")
	)
	flag.Parse()

	logDst, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatalf("qcongestd: opening access log: %v", err)
	}

	s, err := svc.Open(svc.Config{
		CacheCapacity:   *cache,
		BuildSlots:      *buildSlots,
		BuildQueue:      *buildQueue,
		QuerySlots:      *querySlots,
		MaxGraphs:       *maxGraphs,
		MaxNodes:        *maxNodes,
		MaxBatch:        *maxBatch,
		MaxBatchNodes:   *maxBatchN,
		DataDir:         *dataDir,
		WarmStart:       *warm,
		SnapshotEvery:   *snapEvery,
		RatePerKey:      *ratePerKey,
		RateBurst:       *rateBurst,
		TenantMaxGraphs: *tenantGraphs,
		AccessLog:       logDst,
		FollowURL:       *follow,
		MaxLagSeq:       *maxLag,
		FollowPoll:      *replPoll,
		ClusterToken:    *clusterToken,
	})
	if err != nil {
		log.Fatalf("qcongestd: opening store: %v", err)
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()

	var pprofServer *http.Server
	if *pprofAddr != "" {
		pprofServer = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("qcongestd: pprof listener failed: %v", err)
			}
		}()
		log.Printf("qcongestd: pprof on http://%s/debug/pprof/", *pprofAddr)
	}
	if *dataDir != "" {
		rec := s.Recovery()
		log.Printf("qcongestd: durable store %s — recovered %d graphs (%d snapshot + %d log, %d quarantined) in %s",
			*dataDir, rec.SnapshotGraphs+rec.LogGraphs, rec.SnapshotGraphs, rec.LogGraphs, rec.Quarantined, rec.Replay)
	}
	if *follow != "" {
		log.Printf("qcongestd: read-only replica following %s", *follow)
	}
	log.Printf("qcongestd: serving on http://%s (cache=%d buildslots=%d)", *addr, *cache, *buildSlots)

	select {
	case err := <-errCh:
		log.Fatalf("qcongestd: listener failed: %v", err)
	case <-ctx.Done():
	}

	log.Printf("qcongestd: draining (deadline %s)", *drainTimeout)
	s.SetHealthy(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("qcongestd: shutdown: %v", err)
	}
	if pprofServer != nil {
		_ = pprofServer.Shutdown(shutdownCtx)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("qcongestd: serve: %v", err)
	}
	// Fold the log into a final snapshot after the last request drains.
	if err := s.Close(); err != nil {
		log.Fatalf("qcongestd: closing store: %v", err)
	}
	fmt.Println("qcongestd: shut down cleanly")
}
