package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// The serve workload: an open loop at a fixed offered rate against an
// in-memory daemon with the default config, on a loopback listener,
// from two connections. Nine in ten requests are warm reads — diameter,
// radius and eccentricity from primed memos, and sketches on primed
// keys — and one in ten is a cold sketch build on a fresh seeded source
// set. A capacity step then raises the offered rate until the read p99
// limit is missed or the backlog grows.

// serveBuildSlowMs bounds a cold build's time at the slowest host speed
// measured: over five runs on the reference host, at 1.2–1.6× the
// calibration's reference time, the cold-build p90 was 1.5–2.2 ms (p50
// 1.2–1.7 ms). The fixed-rate phase offers the rate at which cold
// builds are in flight 5% of the time at that speed, so the read p90
// falls among reads that no build overlaps. With builds in flight a
// fifth to a third of the time (n = 512 graphs at 412 requests/s), the
// read p90 was inside the overlapped reads, which a slow host starves
// of CPU: it swung from 0.28 to 2.5 ms between runs of one set.
const serveBuildSlowMs = 2.0

// serveRate is the offered rate of the fixed-rate phase in requests/s:
// 250.
const serveRate = 0.05 / (serveColdShare * serveBuildSlowMs / 1000)

const (
	serveN          = 256
	serveMaxW       = 16
	serveGraphs     = 4
	serveWarmKeys   = 2      // primed sketch keys per graph
	serveCycle      = 4000   // requests in the seeded sequence; 400 distinct cold keys
	serveColdShare  = 0.1    // share of cold builds in the request mix (servePattern)
	serveConns      = 2      // = nproc of the reference host
	serveLimitMs    = 25.0   // read p99 limit of the capacity step
	serveCapFrom    = 1600.0 // first offered rate of the capacity step
	serveCapGrow    = 1.4    // rate factor between growing capacity steps
	serveCapFine    = 4      // bisection steps after the first failure
	serveSetups     = 5
	serveChunk      = 1500 * time.Millisecond // fixed-rate phase chunk between calibrations
	serveFixedShare = 0.6                     // share of --seconds spent at the fixed rate
	serveCheckCold  = 4                       // one cold answer in this many is checked against the library
)

// serveD is the unweighted diameter of every serve graph. One family,
// with Eq. (1)'s r, ℓ and k the same for D from 14 to 16 at n = 256,
// keeps the cold-build times unimodal, so their p50 sits inside one
// cluster instead of on the edge between two.
const serveD = 15

type reqKind int

const (
	kindDiameter reqKind = iota
	kindRadius
	kindEcc
	kindWarmSketch
	kindCold
)

// servePattern is the class of each request in a block of ten.
var servePattern = []reqKind{kindDiameter, kindEcc, kindWarmSketch, kindRadius, kindEcc,
	kindDiameter, kindWarmSketch, kindEcc, kindRadius, kindCold}

type serveGraph struct {
	G      *graph.Graph
	Digest string
	Ecc    []int64 // exact eccentricities, from setup
	Params core.Params
	Warm   [][]int   // primed sketch source sets
	WarmAt [][]int64 // their expected numerators
	Den    int64
}

type serveReq struct {
	Kind    reqKind
	Graph   int
	V       int   // eccentricity vertex
	Sources []int // sketch source set
	Warm    int   // primed key index
}

// serveEnv is one set-up daemon with its inputs.
type serveEnv struct {
	*daemon
	graphs []serveGraph
	seq    []serveReq
}

// sourceSet draws r distinct vertices, the expected size of the
// paper's S_i. A fixed size keeps every cold build the same amount of
// work, so the build p50 does not jump between set sizes.
func sourceSet(n, r int, rng *rand.Rand) []int {
	return rng.Perm(n)[:r]
}

func serveSetup(seed int64) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	d, err := startDaemon(svc.New(svc.Config{}), serveConns)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{daemon: d}
	ok := false
	defer func() {
		if !ok {
			env.Close()
		}
	}()
	for i := 0; i < serveGraphs; i++ {
		g := graph.RandomWeights(graph.DiameterControlled(serveN, serveD, rng), serveMaxW, rng)
		p, err := core.ParamsFor(g.N(), g.UnweightedDiameter(), g.MaxWeight())
		if err != nil {
			return nil, err
		}
		up, err := env.cl.UploadRaw(graph.FormatBinary(g), ctBinary)
		if err != nil {
			return nil, err
		}
		sg := serveGraph{G: g, Digest: up.Digest, Ecc: g.Eccentricities(), Params: p}
		// Prime the exact-metric memo and the warm sketch keys.
		if _, err := env.cl.Diameter(up.Digest); err != nil {
			return nil, err
		}
		for k := 0; k < serveWarmKeys; k++ {
			s := sourceSet(g.N(), p.R, rng)
			sk := dist.BuildSkeleton(g, s, p.L, p.K, p.Eps)
			want := make([]int64, len(s))
			for j, v := range s {
				want[j] = sk.ApproxEccentricity(v)
			}
			sg.Den = sk.DenOut
			sk.Release()
			if _, err := env.cl.Sketch(up.Digest, svc.SketchRequest{Sources: s, L: p.L, K: p.K}); err != nil {
				return nil, err
			}
			sg.Warm = append(sg.Warm, s)
			sg.WarmAt = append(sg.WarmAt, want)
		}
		env.graphs = append(env.graphs, sg)
	}
	env.seq = make([]serveReq, serveCycle)
	for i := range env.seq {
		q := serveReq{Kind: servePattern[i%len(servePattern)], Graph: rng.Intn(serveGraphs)}
		g := env.graphs[q.Graph]
		switch q.Kind {
		case kindEcc:
			q.V = rng.Intn(g.G.N())
		case kindWarmSketch:
			q.Warm = rng.Intn(serveWarmKeys)
		case kindCold:
			q.Sources = sourceSet(g.G.N(), g.Params.R, rng)
		}
		env.seq[i] = q
	}
	ok = true
	return env, nil
}

// coldAnswer is a cold build's served answer, kept for the post-run
// check against the library.
type coldAnswer struct {
	Req  serveReq
	Resp svc.SketchResponse
}

// serveRunner issues requests from the sequence and checks warm answers
// in place.
type serveRunner struct {
	env  *serveEnv
	base int // sequence offset of request 0 of the current step

	mu    sync.Mutex
	cold  []coldAnswer
	shed  int
	heap  *heapPeak
	clock *realClock
	trace func(q serveReq) // traced runs: called after each successful warm read
}

func (sr *serveRunner) do(i int) error {
	idx := (sr.base + i) % len(sr.env.seq)
	q := sr.env.seq[idx]
	g := sr.env.graphs[q.Graph]
	cl := sr.env.cl
	if i%64 == 0 {
		sr.mu.Lock()
		sr.heap.Sample()
		sr.mu.Unlock()
	}
	var err error
	switch q.Kind {
	case kindDiameter, kindRadius:
		var got int64
		want := maxOf(g.Ecc)
		if q.Kind == kindDiameter {
			got, err = cl.Diameter(g.Digest)
		} else {
			got, err = cl.Radius(g.Digest)
			want = minOf(g.Ecc)
		}
		if err == nil && got != want {
			err = fmt.Errorf("request %d: served %d, library says %d", idx, got, want)
		}
	case kindEcc:
		var got int64
		got, err = cl.Eccentricity(g.Digest, q.V)
		if err == nil && got != g.Ecc[q.V] {
			err = fmt.Errorf("request %d: eccentricity(%d) served %d, library says %d", idx, q.V, got, g.Ecc[q.V])
		}
	case kindWarmSketch:
		var resp svc.SketchResponse
		s := g.Warm[q.Warm]
		resp, err = cl.Sketch(g.Digest, svc.SketchRequest{Sources: s, L: g.Params.L, K: g.Params.K})
		if err == nil {
			err = sameSketch(resp, g.Den, s, g.WarmAt[q.Warm])
		}
	case kindCold:
		var resp svc.SketchResponse
		resp, err = cl.Sketch(g.Digest, svc.SketchRequest{Sources: q.Sources, L: g.Params.L, K: g.Params.K})
		if err == nil && idx%(serveCheckCold*len(servePattern)) == len(servePattern)-1 {
			sr.mu.Lock()
			sr.cold = append(sr.cold, coldAnswer{q, resp})
			sr.mu.Unlock()
		}
	}
	var se *svc.StatusError
	if errors.As(err, &se) && (se.Code == http.StatusServiceUnavailable || se.Code == http.StatusTooManyRequests) {
		sr.mu.Lock()
		sr.shed++
		sr.mu.Unlock()
	}
	if err == nil && q.Kind != kindCold && sr.trace != nil {
		sr.trace(q)
	}
	return err
}

func sameSketch(resp svc.SketchResponse, den int64, vs []int, want []int64) error {
	if resp.Den != den || len(resp.Eccentricities) != len(vs) {
		return fmt.Errorf("sketch: served den %d with %d answers, library says den %d with %d", resp.Den, len(resp.Eccentricities), den, len(vs))
	}
	for j, e := range resp.Eccentricities {
		if e.V != vs[j] || e.Num != want[j] {
			return fmt.Errorf("sketch: vertex %d served %d, library says %d", vs[j], e.Num, want[j])
		}
	}
	return nil
}

// checkCold compares the kept cold answers with direct library builds.
func (sr *serveRunner) checkCold(r *run) {
	for _, c := range sr.cold {
		g := sr.env.graphs[c.Req.Graph]
		sk := dist.BuildSkeleton(g.G, c.Req.Sources, g.Params.L, g.Params.K, g.Params.Eps)
		want := make([]int64, len(c.Req.Sources))
		for j, v := range c.Req.Sources {
			want[j] = sk.ApproxEccentricity(v)
		}
		den := sk.DenOut
		sk.Release()
		if err := sameSketch(c.Resp, den, c.Req.Sources, want); err != nil {
			r.fail("cold %v", err)
		}
	}
	sr.cold = nil
}

// step runs one open-loop step and advances the sequence offset past it.
func (sr *serveRunner) step(rate float64, dur time.Duration) []sample {
	out := runOpen(sr.clock, rate, dur, serveConns, sr.do)
	sr.base += len(out)
	return out
}

// split returns read latencies, cold-build latencies and failures of a
// step's samples, all timed from the due time.
func (sr *serveRunner) split(base int, ss []sample, r *run) (reads, builds []float64) {
	for _, s := range ss {
		r.Attempted++
		if s.Err != nil {
			r.fail("%v", s.Err)
		}
		if sr.env.seq[(base+s.Index)%len(sr.env.seq)].Kind == kindCold {
			builds = append(builds, s.LatencyMs())
		} else {
			reads = append(reads, s.LatencyMs())
		}
	}
	return reads, builds
}

func maxOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func minOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func runServe(cfg config) (*run, error) {
	env, setupRaw, setupS, err := timedSetup(serveSetups,
		func() (*serveEnv, error) { return serveSetup(cfg.Seed) },
		func(e *serveEnv) { e.Close() })
	if err != nil {
		return nil, err
	}
	defer env.Close()
	sr := &serveRunner{env: env, heap: newHeapPeak(), clock: &realClock{}}
	// Warm the connections and the handler paths off the clock.
	sr.step(serveRate, 250*time.Millisecond)
	sr.cold = nil
	if cfg.Trace {
		return traceServe(cfg, sr)
	}
	r := newRun()
	r.report("setup_s", setupRaw, setupS)
	dur := time.Duration(cfg.Seconds * float64(time.Second))

	// The fixed-rate phase runs in chunks with a calibration between
	// each two; a chunk's times are converted by the calibrations just
	// before and after it.
	var reads, builds, cpu timings
	var wall, spun float64
	chunks := max(1, int(float64(dur)*serveFixedShare/float64(serveChunk)))
	c0 := readCounters()
	cs := newCalSpans(3)
	for c := 0; c < chunks; c++ {
		base := sr.base
		spin0, cpu0, t := sr.clock.Spun.Load(), cpuTime(), time.Now()
		ss := sr.step(serveRate, serveChunk)
		wall += since(t)
		// The generator's spin-wait is the harness's, not the program's.
		spin := ms(time.Duration(sr.clock.Spun.Load() - spin0))
		spun += spin
		cal := cs.next()
		cpu.add(ms(cpuTime()-cpu0)-spin, cal)
		rs, bs := sr.split(base, ss, r)
		for _, x := range rs {
			reads.add(x, cal)
		}
		for _, x := range bs {
			builds.add(x, cal)
		}
	}
	c1 := readCounters()
	if beyond(len(reads.Raw), 0.99) < minBeyond || beyond(len(builds.Raw), 0.5) < minBeyond {
		return nil, fmt.Errorf("only %d reads and %d builds: too few for the percentiles", len(reads.Raw), len(builds.Raw))
	}
	n := float64(r.Attempted)
	v := r.Values
	v["alloc_kb_per_op"] = float64(c1.AllocBytes-c0.AllocBytes) / 1024 / n
	v["ops_per_s"] = float64(r.Attempted-r.Failed) / wall
	// Converting these made their medians agree across sets of runs
	// taken at different times, which the measured ones did not
	// (README.md has the runs).
	r.report("cpu_ms_per_op", sum(cpu.Raw)/n, sum(cpu.Ref)/n)
	reads.report(r, "p50_ms", 0.5)
	reads.report(r, "tail_ms", 0.9)
	builds.report(r, "side_p50_ms", 0.5)
	fmt.Printf("serve: fixed-rate reads p99 %.4f ms over %d; cold builds p90 %.4f ms over %d; generator spin %.4f ms per request\n",
		quantile(reads.Raw, 0.99), len(reads.Raw), quantile(builds.Raw, 0.9), len(builds.Raw), spun/n)

	// Capacity, printed but not reported: it swings by more than any
	// allowed bound between runs on the reference host. Each step is
	// long enough for ten reads beyond the p99.
	capacity, log := capacitySearch(serveCapFrom, serveCapGrow, 10, serveCapFine, func(rate float64) stepVerdict {
		d := time.Duration(max(1.2, 1200/rate) * float64(time.Second))
		base := sr.base
		ss := sr.step(rate, d)
		var stepRun run
		reads, _ := sr.split(base, ss, &stepRun)
		r.Attempted += stepRun.Attempted
		r.Failed += stepRun.Failed
		r.Failures = append(r.Failures, stepRun.Failures...)
		v := stepVerdict{Rate: rate, P99Ms: quantile(reads, 0.99), Failed: stepRun.Failed, Backlog: backlogGrowing(ss, serveLimitMs)}
		v.Pass = v.Failed == 0 && !v.Backlog && v.P99Ms <= serveLimitMs
		return v
	})
	for _, v := range log {
		fmt.Printf("step rate %.0f/s p99 %.3f ms failed %d backlog %v pass %v\n", v.Rate, v.P99Ms, v.Failed, v.Backlog, v.Pass)
	}
	fmt.Printf("serve: max_per_s %.1f (read p99 <= %.0f ms, no growing backlog)\n", capacity, serveLimitMs)
	v["peak_heap_mb"] = sr.heap.MB()
	sr.checkCold(r)
	return r, nil
}

// traceServe is the traced run: an untraced third at the fixed rate for
// the overhead baseline, then the same rate with every fourth warm read
// repeated through ServeHTTP on a recorder, which times the handler
// under the same load.
func traceServe(cfg config, sr *serveRunner) (*run, error) {
	r := &run{Values: map[string]float64{}}
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	base := sr.base
	plain, _ := sr.split(base, sr.step(serveRate, dur/3), &run{})

	var mu sync.Mutex
	var handler []float64
	count := 0
	sr.trace = func(q serveReq) {
		mu.Lock()
		count++
		sample := count%4 == 0
		mu.Unlock()
		if !sample || q.Kind == kindWarmSketch {
			return
		}
		g := sr.env.graphs[q.Graph]
		path := "/v1/graphs/" + g.Digest + "/diameter"
		switch q.Kind {
		case kindRadius:
			path = "/v1/graphs/" + g.Digest + "/radius"
		case kindEcc:
			path = fmt.Sprintf("/v1/graphs/%s/eccentricity?v=%d", g.Digest, q.V)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		t := time.Now()
		sr.env.srv.ServeHTTP(rec, req)
		d := ms(time.Since(t))
		mu.Lock()
		handler = append(handler, d)
		mu.Unlock()
	}
	st0 := sr.env.srv.Cache().Stats()
	c0 := readCounters()
	base = sr.base
	ss := sr.step(serveRate, dur*2/3)
	c1 := readCounters()
	st1 := sr.env.srv.Cache().Stats()
	sr.trace = nil
	var service, late []float64 // send to answer, and due to send
	reads, _ := sr.split(base, ss, r)
	for _, s := range ss {
		if sr.env.seq[(base+s.Index)%len(sr.env.seq)].Kind != kindCold {
			service = append(service, float64(s.End-s.Start)/1e6)
			late = append(late, s.LatenessMs())
		}
	}
	sr.checkCold(r)
	v := r.Values
	hits := float64(st1.Hits - st0.Hits)
	lookups := hits + float64(st1.Misses-st0.Misses) + float64(st1.Waits-st0.Waits)
	v["server.hit_ratio"] = hits / lookups
	v["dist.builds_per_op"] = float64(st1.Misses-st0.Misses) / float64(len(ss))
	v["qdist.evals_per_op"] = 0 // no search on this path
	v["svc.shed"] = float64(sr.shed)
	v["runtime.gc_pause_ms"] = float64(c1.GCPauseNs-c0.GCPauseNs) / 1e6 / float64(len(ss))
	v["svc.handler_us"] = 1000 * median(handler)
	v["svc.transport_us"] = 1000 * (median(service) - median(handler))
	root := span{Name: "read from due (residual)", Ms: median(reads), Children: []span{
		{Name: "generator lateness", Ms: median(late)},
		{Name: "loopback read (transport)", Ms: median(service), Children: []span{
			{Name: "svc.ServeHTTP", Ms: median(handler)},
		}},
	}}
	r.Table = selfTimes(root)
	v["residual_ms"] = root.selfMs()
	v["trace.overhead_pct"] = 100 * (root.Ms/median(plain) - 1)
	r.TableNote = fmt.Sprintf("traced read p50 %.4f ms over %d reads (%d handler samples); untraced read p50 %.4f ms over %d reads",
		root.Ms, len(reads), len(handler), median(plain), len(plain))
	var gs []*graph.Graph
	for _, g := range sr.env.graphs {
		gs = append(gs, g.G)
	}
	if err := probeLayers(cfg, probeInputs{Graphs: gs}, v); err != nil {
		return nil, err
	}
	return r, nil
}
