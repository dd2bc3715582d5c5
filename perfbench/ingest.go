package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// The ingest workload: a closed loop with one uploader against a
// durable daemon (svc.Open) over a fresh data dir. Uploads are raw
// bodies of fresh graphs, alternating the binary and text codecs. Every
// fourth upload is a small graph followed by its first diameter read,
// which builds adjacency and runs all-source Dijkstra. The loop runs in
// rounds of ingestRound uploads, which keeps the registry under its
// default MaxGraphs of 128 and crosses the store's default snapshot
// cadence of 64 appends once per round; each round ends with close and
// reopen, and the reopened daemon must hold every uploaded digest.
const (
	ingestRound  = 72
	ingestSmallN = 512
	ingestSmallD = 12
	ingestBigN   = 4000
	ingestBigM   = 3 * ingestBigN
	ingestMaxW   = 16
	ingestSmall  = 4 // every this-many-th upload is a small graph
	ingestSetups = 5
)

type ingestOp struct {
	upload
	Digest string // client-side Digest(), the expected answer
	Small  bool
}

func ingestSetup(seed int64) ([]ingestOp, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]ingestOp, ingestRound)
	big, small := 0, 0
	for j := range ops {
		op := &ops[j]
		if j%ingestSmall == ingestSmall-1 {
			op.Small = true
			op.G = graph.RandomWeights(graph.DiameterControlled(ingestSmallN, ingestSmallD, rng), ingestMaxW, rng)
			op.Binary = small%2 == 0
			small++
		} else {
			op.G = graph.RandomWeights(graph.RandomConnected(ingestBigN, ingestBigM, rng), ingestMaxW, rng)
			op.Binary = big%2 == 0
			big++
		}
		if op.Binary {
			op.Data = graph.FormatBinary(op.G)
		} else {
			op.Data = graph.FormatEdgeList(op.G)
		}
		op.Digest = graph.DigestString(op.G.Digest())
	}
	return ops, nil
}

func openDaemon(dir string) (*daemon, error) {
	srv, err := svc.Open(svc.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	return startDaemon(srv, 1)
}

// ingestStats accumulates one run's measurements across rounds.
type ingestStats struct {
	recoverS      []float64
	upload, touch []float64          // measured upload and first-read times
	parse         map[bool][]float64 // traced: per-codec in-situ parse time
	smallChecks   []ingestOp
	smallGot      []int64
	heap          *heapPeak // sampled after each upload when set
}

// ingestRoundRun uploads the whole cycle into a fresh data dir, closes,
// reopens and checks that every digest was recovered.
func ingestRoundRun(cfg config, ops []ingestOp, st *ingestStats, r *run, traced bool) error {
	dir, err := os.MkdirTemp(cfg.WorkDir, "ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := openDaemon(dir)
	if err != nil {
		return err
	}
	for j, op := range ops {
		t := time.Now()
		resp, err := d.cl.UploadRaw(op.Data, op.contentType())
		lat := time.Since(t)
		r.Attempted++
		st.upload = append(st.upload, ms(lat))
		if st.heap != nil {
			st.heap.Sample()
		}
		if err == nil && (resp.Digest != op.Digest || !resp.Created) {
			err = fmt.Errorf("served digest %s created=%v, client computed %s", resp.Digest, resp.Created, op.Digest)
		}
		if err != nil {
			r.fail("upload %d: %v", j, err)
			continue
		}
		if traced {
			parse := graph.ParseEdgeList
			if op.Binary {
				parse = graph.ParseBinary
			}
			t = time.Now()
			if _, err := parse(op.Data); err != nil {
				d.Close()
				return err
			}
			st.parse[op.Binary] = append(st.parse[op.Binary], ms(time.Since(t)))
		}
		if op.Small {
			t = time.Now()
			got, err := d.cl.Diameter(resp.Digest)
			st.touch = append(st.touch, ms(time.Since(t)))
			r.Attempted++
			if err != nil {
				r.fail("first diameter %d: %v", j, err)
				continue
			}
			st.smallChecks = append(st.smallChecks, op)
			st.smallGot = append(st.smallGot, got)
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	t := time.Now()
	srv, err := svc.Open(svc.Config{DataDir: dir})
	st.recoverS = append(st.recoverS, since(t))
	if err != nil {
		return err
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs", nil))
	var list svc.GraphListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		return fmt.Errorf("reopened daemon's graph list: %w", err)
	}
	have := map[string]bool{}
	for _, g := range list.Graphs {
		have[g.Digest] = true
	}
	for _, op := range ops {
		if !have[op.Digest] {
			r.fail("digest %s missing after reopen", op.Digest)
		}
	}
	return nil
}

// checkSmall compares every first-touch diameter with the library.
func (st *ingestStats) checkSmall(r *run) {
	want := map[string]int64{}
	for i, op := range st.smallChecks {
		w, ok := want[op.Digest]
		if !ok {
			w = op.G.Diameter()
			want[op.Digest] = w
		}
		if st.smallGot[i] != w {
			r.fail("first diameter of %s: served %d, library says %d", op.Digest, st.smallGot[i], w)
		}
	}
}

// edges counts the edges one pass over the cycle uploads.
func edges(ops []ingestOp) float64 {
	m := 0
	for _, op := range ops {
		m += op.G.M()
	}
	return float64(m)
}

func runIngest(cfg config) (*run, error) {
	ops, setupRaw, setupS, err := timedSetup(ingestSetups, func() ([]ingestOp, error) { return ingestSetup(cfg.Seed) }, nil)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return traceIngest(cfg, ops)
	}
	r := newRun()
	r.report("setup_s", setupRaw, setupS)
	st := &ingestStats{heap: newHeapPeak()}
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	// Each round's times are converted by the calibrations just before
	// and after it.
	var upload, touch, cpu timings
	c0 := readCounters()
	cs := newCalSpans(5)
	start := time.Now()
	for time.Since(start) < dur {
		fromU, fromT := len(st.upload), len(st.touch)
		cpu0 := cpuTime()
		if err := ingestRoundRun(cfg, ops, st, r, false); err != nil {
			return nil, err
		}
		roundCPU := ms(cpuTime() - cpu0)
		cal := cs.next()
		cpu.add(roundCPU, cal)
		for _, x := range st.upload[fromU:] {
			upload.add(x, cal)
		}
		for _, x := range st.touch[fromT:] {
			touch.add(x, cal)
		}
	}
	c1 := readCounters()
	st.checkSmall(r)
	if beyond(len(upload.Raw), 0.9) < minBeyond || beyond(len(touch.Raw), 0.5) < minBeyond {
		return nil, fmt.Errorf("only %d uploads and %d first reads: too few for the percentiles", len(upload.Raw), len(touch.Raw))
	}
	n := float64(len(upload.Raw))
	r.Values["peak_heap_mb"] = st.heap.MB()
	r.Values["alloc_kb_per_op"] = float64(c1.AllocBytes-c0.AllocBytes) / 1024 / n
	// An upload is mostly fsync, but over four sets of ten runs the
	// converted upload times were as steady as the measured ones or
	// steadier (README.md has the runs).
	r.report("cpu_ms_per_op", sum(cpu.Raw)/n, sum(cpu.Ref)/n)
	r.report("ops_per_s", 1000*n/sum(upload.Raw), 1000*n/sum(upload.Ref))
	upload.report(r, "p50_ms", 0.5)
	upload.report(r, "tail_ms", 0.9)
	touch.report(r, "side_p50_ms", 0.5)
	fmt.Printf("ingest: %.0f edges/s of upload time\n", edges(ops)/float64(len(ops))*r.Measured["ops_per_s"])
	fmt.Printf("ingest: %d rounds, recover median %.4f s\n", len(st.recoverS), median(st.recoverS))
	return r, nil
}

// traceIngest is the traced run: untraced rounds for a third of the
// time for the overhead baseline, then rounds that re-parse each body
// outside the daemon right after its upload; the daemon-side layers are
// probed on a separate durable daemon and store over the same bodies.
func traceIngest(cfg config, ops []ingestOp) (*run, error) {
	r := &run{Values: map[string]float64{}}
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	plain := &ingestStats{}
	start := time.Now()
	for time.Since(start) < dur/3 {
		if err := ingestRoundRun(cfg, ops, plain, &run{}, false); err != nil {
			return nil, err
		}
	}
	st := &ingestStats{parse: map[bool][]float64{}}
	c0 := readCounters()
	start = time.Now()
	for time.Since(start) < dur*2/3 {
		if err := ingestRoundRun(cfg, ops, st, r, true); err != nil {
			return nil, err
		}
	}
	c1 := readCounters()
	st.checkSmall(r)
	v := r.Values
	v["graph.parse_binary_ms"] = median(st.parse[true])
	v["graph.parse_text_ms"] = median(st.parse[false])
	v["store.open_s"] = median(st.recoverS)
	v["dist.builds_per_op"] = 0 // no skeleton builds on this path
	v["qdist.evals_per_op"] = 0 // no search on this path
	v["server.hit_ratio"] = 0   // no sketch lookups on this path
	v["svc.shed"] = 0           // one uploader never meets a full gate
	v["runtime.gc_pause_ms"] = float64(c1.GCPauseNs-c0.GCPauseNs) / 1e6 / float64(len(st.upload))

	var big []upload
	var small []*graph.Graph
	for _, op := range ops {
		if op.Small {
			small = append(small, op.G)
		} else {
			big = append(big, op.upload)
		}
	}
	if err := probeLayers(cfg, probeInputs{Graphs: small, Uploads: big}, v); err != nil {
		return nil, err
	}
	var parse []float64
	parse = append(append(parse, st.parse[true]...), st.parse[false]...)
	root := span{Name: "upload over loopback (transport)", Ms: median(st.upload), Children: []span{
		{Name: "svc.ServeHTTP upload (handler)", Ms: v["svc.upload_ms"], Children: []span{
			{Name: "graph.parse", Ms: median(parse)},
			{Name: "store.append", Ms: v["store.append_ms"]},
		}},
	}}
	r.Table = selfTimes(root)
	v["residual_ms"] = root.selfMs()
	v["trace.overhead_pct"] = 100 * (root.Ms/median(plain.upload) - 1)
	r.TableNote = fmt.Sprintf("traced upload p50 %.4f ms over %d uploads; untraced upload p50 %.4f ms over %d uploads; recover %.4f s over %d reopens",
		root.Ms, len(st.upload), median(plain.upload), len(plain.upload), median(st.recoverS), len(st.recoverS))
	return r, nil
}
