package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/store"
	"qcongest/internal/svc"
)

// The layer probes time calls into each module's public functions on a
// workload's own inputs. A traced run first measures what its own loop
// can see in place; probeLayers then fills every per-layer metric still
// missing. A probe of a layer the workload's ops never reach says what
// that layer costs on these inputs; README.md predicts "no change" for
// those pairings.

// Content types of the raw upload codecs (API.md).
const (
	ctBinary = "application/x-qcongest-graph"
	ctText   = "application/x-qcongest-edgelist"
)

const (
	probeGraphs  = 4   // graphs each algorithm-layer probe runs on
	probeReps    = 3   // repetitions per graph for the cheap probes
	probeReads   = 300 // warm reads timed for the handler and transport probes
	probeUploads = 16  // bodies the upload and store probes commit
	probeOpens   = 3   // store reopens timed
)

// upload is one encoded graph body with the graph it encodes.
type upload struct {
	G      *graph.Graph
	Data   []byte
	Binary bool
}

func (u upload) contentType() string {
	if u.Binary {
		return ctBinary
	}
	return ctText
}

// probeInputs are the workload inputs the probes run on.
type probeInputs struct {
	Graphs  []*graph.Graph // inputs of the algorithm layers
	Uploads []upload       // distinct graphs' bodies for the codec, upload and store probes; empty encodes Graphs
}

// pick returns up to k graphs spread evenly over gs.
func pick(gs []*graph.Graph, k int) []*graph.Graph {
	if len(gs) <= k {
		return gs
	}
	out := make([]*graph.Graph, k)
	for i := range out {
		out[i] = gs[i*len(gs)/k]
	}
	return out
}

// alternateCodecs encodes each graph once, alternating the codec.
func alternateCodecs(gs []*graph.Graph) []upload {
	out := make([]upload, len(gs))
	for i, g := range gs {
		out[i] = upload{G: g, Binary: i%2 == 0}
		if out[i].Binary {
			out[i].Data = graph.FormatBinary(g)
		} else {
			out[i].Data = graph.FormatEdgeList(g)
		}
	}
	return out
}

// timeMedian runs f reps times and returns its median duration in ms.
func timeMedian(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		f()
		xs[i] = ms(time.Since(t))
	}
	return median(xs)
}

func probeLayers(cfg config, in probeInputs, v map[string]float64) error {
	gs := pick(in.Graphs, probeGraphs)
	ups := in.Uploads
	if len(ups) == 0 {
		ups = alternateCodecs(pick(in.Graphs, probeUploads))
	}
	missing := func(name string) bool { _, ok := v[name]; return !ok }
	var xs []float64
	collect := func(name string, reps int, f func(g *graph.Graph)) {
		if !missing(name) {
			return
		}
		xs = xs[:0]
		for _, g := range gs {
			g := g
			xs = append(xs, timeMedian(reps, func() { f(g) }))
		}
		v[name] = median(xs)
	}
	collect("graph.bfs_ms", probeReps, func(g *graph.Graph) { g.UnweightedDiameter() })
	collect("graph.dijkstra_ms", 1, func(g *graph.Graph) { g.Eccentricities() })
	collect("graph.digest_ms", probeReps, func(g *graph.Graph) { g.Digest() })
	for _, codec := range []struct {
		name   string
		binary bool
		parse  func([]byte) (*graph.Graph, error)
	}{{"graph.parse_binary_ms", true, graph.ParseBinary}, {"graph.parse_text_ms", false, graph.ParseEdgeList}} {
		if !missing(codec.name) {
			continue
		}
		xs = xs[:0]
		for _, u := range ups {
			if u.Binary != codec.binary {
				continue
			}
			var err error
			xs = append(xs, timeMedian(probeReps, func() { _, err = codec.parse(u.Data) }))
			if err != nil {
				return fmt.Errorf("probe %s: %w", codec.name, err)
			}
		}
		v[codec.name] = median(xs)
	}
	if missing("dist.build_ms") || missing("dist.ecc_query_us") || missing("qdist.search_ms") {
		var build, ecc, search []float64
		for i, g := range gs {
			p, err := core.ParamsFor(g.N(), g.UnweightedDiameter(), g.MaxWeight())
			if err != nil {
				return err
			}
			mode := core.DiameterMode
			if i%2 == 1 {
				mode = core.RadiusMode
			}
			rep, err := replayOp(g, p, mode, cfg.Seed+int64(i))
			if err != nil {
				return err
			}
			build = append(build, rep.BuildMs...)
			ecc = append(ecc, rep.EccUs...)
			search = append(search, rep.SearchMs)
		}
		setMissing(v, "dist.build_ms", median(build))
		setMissing(v, "dist.ecc_query_us", median(ecc))
		setMissing(v, "qdist.search_ms", median(search))
	}
	if err := probeDaemon(gs[0], v); err != nil {
		return err
	}
	return probeStore(cfg, ups, v)
}

func setMissing(v map[string]float64, name string, x float64) {
	if _, ok := v[name]; !ok {
		v[name] = x
	}
}

// probeDaemon times a warm diameter read through ServeHTTP on a
// recorder and over a loopback connection, and a primed sketch-cache
// hit, on an in-memory daemon holding g.
func probeDaemon(g *graph.Graph, v map[string]float64) error {
	d, err := startDaemon(svc.New(svc.Config{}), 1)
	if err != nil {
		return err
	}
	defer d.Close() // in-memory daemon: nothing to drain or lose
	srv, cl := d.srv, d.cl
	up, err := cl.UploadRaw(graph.FormatBinary(g), ctBinary)
	if err != nil {
		return err
	}
	want := g.Diameter()
	path := "/v1/graphs/" + up.Digest + "/diameter"
	if got, err := cl.Diameter(up.Digest); err != nil || got != want {
		return fmt.Errorf("probe: served diameter %d (%v), library says %d", got, err, want)
	}
	handler := make([]float64, probeReads)
	wire := make([]float64, probeReads)
	for i := 0; i < probeReads; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		t := time.Now()
		srv.ServeHTTP(rec, req)
		handler[i] = ms(time.Since(t))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe: handler answered %d", rec.Code)
		}
		t = time.Now()
		if _, err := cl.Diameter(up.Digest); err != nil {
			return err
		}
		wire[i] = ms(time.Since(t))
	}
	setMissing(v, "svc.handler_us", 1000*median(handler))
	setMissing(v, "svc.transport_us", 1000*(median(wire)-median(handler)))

	p, err := core.ParamsFor(g.N(), g.UnweightedDiameter(), g.MaxWeight())
	if err != nil {
		return err
	}
	src := []int{0, g.N() / 3, 2 * g.N() / 3}
	eps := dist.EpsForN(g.N())
	srv.Cache().Skeleton(g, src, p.L, p.K, eps) // prime the key
	setMissing(v, "server.hit_us", 1000*timeMedian(probeReads, func() { srv.Cache().Skeleton(g, src, p.L, p.K, eps) }))
	return nil
}

// probeStore times uploads through ServeHTTP into a durable daemon, and
// AppendGraph, Snapshot and reopen on a store of its own, over the
// first probeUploads bodies, which must encode distinct graphs. A
// snapshot is taken after each quarter of the appends, so each one
// folds new records.
func probeStore(cfg config, ups []upload, v map[string]float64) error {
	if len(ups) > probeUploads {
		ups = ups[:probeUploads]
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if _, ok := v["svc.upload_ms"]; !ok {
		srv, err := svc.Open(svc.Config{DataDir: filepath.Join(dir, "svc")})
		if err != nil {
			return err
		}
		xs := make([]float64, len(ups))
		for i, u := range ups {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(u.Data))
			req.Header.Set("Content-Type", u.contentType())
			t := time.Now()
			srv.ServeHTTP(rec, req)
			xs[i] = ms(time.Since(t))
			if rec.Code/100 != 2 {
				srv.Close()
				return fmt.Errorf("probe: upload answered %d: %s", rec.Code, rec.Body.String())
			}
		}
		if err := srv.Close(); err != nil {
			return err
		}
		v["svc.upload_ms"] = median(xs)
	}

	opts := store.Options{Dir: filepath.Join(dir, "store")}
	st, _, _, err := store.Open(opts)
	if err != nil {
		return err
	}
	app := make([]float64, len(ups))
	var snap []float64
	for i, u := range ups {
		t := time.Now()
		err := st.AppendGraph(u.G, nil)
		app[i] = ms(time.Since(t))
		if err == nil && (i+1)%max(1, len(ups)/4) == 0 {
			t = time.Now()
			err = st.Snapshot()
			snap = append(snap, ms(time.Since(t)))
		}
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	opens := make([]float64, probeOpens)
	for i := range opens {
		t := time.Now()
		st, rec, _, err := store.Open(opts)
		opens[i] = since(t)
		if err != nil {
			return err
		}
		n := len(rec)
		if err := st.Close(); err != nil {
			return err
		}
		if n != len(ups) {
			return fmt.Errorf("probe: store reopened with %d graphs, committed %d", n, len(ups))
		}
	}
	setMissing(v, "store.append_ms", median(app))
	setMissing(v, "store.snapshot_ms", median(snap))
	setMissing(v, "store.open_s", median(opens))
	return nil
}
