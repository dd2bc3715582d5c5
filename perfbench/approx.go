package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/qdist"
)

// The approx workload: a closed loop with one caller, alternating
// diameter and radius core.Approximate calls at the paper's defaults
// (Sets = n) over n = 256 graphs from a low-D (D ≈ 6) and a high-D
// (D ≈ 24) DiameterControlled family, both with RandomWeights maxW 16.
// Eq. (1) makes r, ℓ and k depend on D, so the two families exercise
// different skeleton shapes. The side op is the high-D half. A run does
// whole passes over the cycle of 100 distinct ops, so every op weighs
// the same in the percentiles and a run's work does not depend on how
// fast the host happens to be.
const (
	approxN       = 256
	approxMaxW    = 16
	approxPerFam  = 25 // graphs per family: 2 × 25 graphs × 2 modes = 100 distinct ops
	approxPassS   = 30 // one pass over the cycle takes 20–40 s on the reference host, as its speed drifts
	approxSetups  = 5  // setup_s is the median of this many set-ups
	replayTables  = 8  // skeletons whose eccentricities feed the search replay
	approxTraceBy = 2  // the traced run covers every this-many-th op of the cycle
)

var approxFamilies = []int{6, 24}

type approxOp struct {
	G      *graph.Graph
	HighD  bool
	Mode   core.Mode
	Seed   int64
	Exact  int64 // the exact weighted diameter or radius, from setup
	Params core.Params
}

// approxSetup generates the op cycle from the seed and computes each
// op's exact answer with all-source Dijkstra.
func approxSetup(seed int64) ([]approxOp, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []approxOp
	for i := 0; i < approxPerFam; i++ {
		var fam [2]*graph.Graph
		for f, d := range approxFamilies {
			fam[f] = graph.RandomWeights(graph.DiameterControlled(approxN, d, rng), approxMaxW, rng)
		}
		// Alternate modes and families: low/diam, high/rad, low/rad, high/diam.
		for _, pick := range []struct {
			f    int
			mode core.Mode
		}{{0, core.DiameterMode}, {1, core.RadiusMode}, {0, core.RadiusMode}, {1, core.DiameterMode}} {
			ops = append(ops, approxOp{G: fam[pick.f], HighD: pick.f == 1, Mode: pick.mode, Seed: rng.Int63()})
		}
	}
	type known struct {
		diam, rad int64
		params    core.Params
	}
	seen := map[*graph.Graph]known{}
	for i := range ops {
		op := &ops[i]
		k, ok := seen[op.G]
		if !ok {
			ecc := op.G.Eccentricities()
			k.diam, k.rad = maxOf(ecc), minOf(ecc)
			if k.diam >= graph.Inf {
				return nil, fmt.Errorf("approx: generated graph is disconnected")
			}
			p, err := core.ParamsFor(op.G.N(), op.G.UnweightedDiameter(), op.G.MaxWeight())
			if err != nil {
				return nil, err
			}
			k.params = p
			seen[op.G] = k
		}
		op.Exact, op.Params = k.diam, k.params
		if op.Mode == core.RadiusMode {
			op.Exact = k.rad
		}
	}
	return ops, nil
}

// check reports whether an estimate lies in the Theorem 1.1 window
// [1, (1+ε)²] around the exact value.
func (op approxOp) check(res *core.Result) error {
	ratio := res.Estimate / float64(op.Exact)
	bound := math.Pow(1+res.Params.Eps.Float(), 2)
	if ratio < 1-1e-12 || ratio > bound+1e-12 {
		return fmt.Errorf("%v estimate %.4f vs exact %d: ratio %.5f outside [1, %.5f]", op.Mode, res.Estimate, op.Exact, ratio, bound)
	}
	return nil
}

// timedSetup runs setup `times` times and returns the last result with
// the median set-up time, measured and in reference-host units. discard,
// if set, releases each earlier result, outside the timed part.
func timedSetup[T any](times int, setup func() (T, error), discard func(T)) (out T, raw, ref float64, err error) {
	var secs, refs []float64
	for i := 0; i < times; i++ {
		if i > 0 && discard != nil {
			discard(out)
		}
		cs := newCalSpans(3)
		t := time.Now()
		v, err := setup()
		d := since(t)
		if err != nil {
			return out, 0, 0, err
		}
		secs = append(secs, d)
		refs = append(refs, toRef(d, cs.next()))
		out = v
	}
	return out, median(secs), median(refs), nil
}

func runApprox(cfg config) (*run, error) {
	ops, setupRaw, setupS, err := timedSetup(approxSetups, func() ([]approxOp, error) { return approxSetup(cfg.Seed) }, nil)
	if err != nil {
		return nil, err
	}
	// Warm the skeleton build arenas so the first timed op does not pay
	// for them.
	if _, err := core.Approximate(ops[0].G, ops[0].Mode, core.Options{Seed: ops[0].Seed}); err != nil {
		return nil, err
	}
	if cfg.Trace {
		return traceApprox(cfg, ops)
	}
	r := newRun()
	r.report("setup_s", setupRaw, setupS)
	// Each op is converted by the calibrations just before and after it:
	// the host's speed changes within seconds.
	var lat, side, cpu timings
	hp := newHeapPeak()
	c0 := readCounters()
	passes := max(1, int(math.Round(cfg.Seconds/approxPassS)))
	cs := newCalSpans(3)
	for i := 0; i < passes*len(ops); i++ {
		op := ops[i%len(ops)]
		cpu0, t := cpuTime(), time.Now()
		res, err := core.Approximate(op.G, op.Mode, core.Options{Seed: op.Seed})
		d := ms(time.Since(t))
		opCPU := ms(cpuTime() - cpu0)
		cal := cs.next()
		cpu.add(opCPU, cal)
		r.Attempted++
		if err == nil {
			err = op.check(res)
		}
		if err != nil {
			r.fail("op %d: %v", i, err)
		}
		lat.add(d, cal)
		if op.HighD {
			side.add(d, cal)
		}
		hp.Sample()
	}
	c1 := readCounters()
	if beyond(len(lat.Raw), 0.9) < minBeyond || beyond(len(side.Raw), 0.5) < minBeyond {
		return nil, fmt.Errorf("only %d ops: too few for the percentiles", len(lat.Raw))
	}
	n := float64(r.Attempted)
	ok := float64(r.Attempted - r.Failed)
	r.Values["peak_heap_mb"] = hp.MB()
	r.Values["alloc_kb_per_op"] = float64(c1.AllocBytes-c0.AllocBytes) / 1024 / n
	r.report("cpu_ms_per_op", sum(cpu.Raw)/n, sum(cpu.Ref)/n)
	r.report("ops_per_s", 1000*ok/sum(lat.Raw), 1000*ok/sum(lat.Ref))
	lat.report(r, "p50_ms", 0.5)
	lat.report(r, "tail_ms", 0.9)
	side.report(r, "side_p50_ms", 0.5)
	return r, nil
}

// traceApprox is the traced run over every approxTraceBy-th op of the
// cycle: an untraced pass over those ops, the overhead baseline, then a
// traced pass over the same ops that times each layer from outside
// around them.
func traceApprox(cfg config, all []approxOp) (*run, error) {
	r := &run{Values: map[string]float64{}}
	var ops []approxOp
	for i := 0; i < len(all); i += approxTraceBy {
		ops = append(ops, all[i])
	}
	var plain, opMs, bfsMs, buildMs, eccUs, searchMs, builds, evals, queries []float64
	var gcPauseNs uint64
	passes := max(1, int(math.Round(cfg.Seconds/approxPassS)))
	for pass := 0; pass < passes; pass++ {
		for _, op := range ops {
			t := time.Now()
			if _, err := core.Approximate(op.G, op.Mode, core.Options{Seed: op.Seed}); err != nil {
				return nil, err
			}
			plain = append(plain, ms(time.Since(t)))
		}
		gc0 := readCounters().GCPauseNs
		for i, op := range ops {
			t := time.Now()
			op.G.UnweightedDiameter()
			bfsMs = append(bfsMs, ms(time.Since(t)))

			t = time.Now()
			res, err := core.Approximate(op.G, op.Mode, core.Options{Seed: op.Seed})
			opMs = append(opMs, ms(time.Since(t)))
			r.Attempted++
			if err == nil {
				err = op.check(res)
			}
			if err != nil {
				r.fail("op %d: %v", i, err)
				continue
			}
			builds = append(builds, float64(res.SetsEvaluated+1))
			evals = append(evals, float64(res.OuterEvaluations))

			rep, err := replayOp(op.G, op.Params, op.Mode, op.Seed)
			if err != nil {
				return nil, err
			}
			buildMs = append(buildMs, rep.BuildMs...)
			eccUs = append(eccUs, rep.EccUs...)
			searchMs = append(searchMs, rep.SearchMs)
			queries = append(queries, float64(rep.Queries))
		}
		gcPauseNs += readCounters().GCPauseNs - gc0
	}
	v := r.Values
	v["graph.bfs_ms"] = median(bfsMs)
	v["dist.build_ms"] = median(buildMs)
	v["dist.ecc_query_us"] = median(eccUs)
	v["dist.builds_per_op"] = mean(builds)
	v["qdist.search_ms"] = median(searchMs)
	v["qdist.evals_per_op"] = mean(evals)
	v["server.hit_ratio"] = 0 // no sketch cache on this path
	v["svc.shed"] = 0         // no daemon on this path
	v["runtime.gc_pause_ms"] = float64(gcPauseNs) / 1e6 / float64(len(opMs))
	root := span{Name: "core.Approximate (residual)", Ms: median(opMs), Children: []span{
		{Name: "graph.bfs", Ms: v["graph.bfs_ms"]},
		{Name: "dist.build", Ms: v["dist.build_ms"], Count: v["dist.builds_per_op"]},
		{Name: "dist.ecc_query", Ms: v["dist.ecc_query_us"] / 1000, Count: mean(queries)},
		{Name: "qdist.search", Ms: v["qdist.search_ms"]},
	}}
	r.Table = selfTimes(root)
	v["residual_ms"] = root.selfMs()
	v["trace.overhead_pct"] = 100 * (root.Ms/median(plain) - 1)
	r.TableNote = fmt.Sprintf("traced p50 %.3f ms over %d ops; untraced p50 %.3f ms over %d ops", root.Ms, len(opMs), median(plain), len(plain))
	if err := probeLayers(cfg, probeInputsFor(all), v); err != nil {
		return nil, err
	}
	return r, nil
}

func probeInputsFor(ops []approxOp) probeInputs {
	var in probeInputs
	seen := map[*graph.Graph]bool{}
	for _, op := range ops {
		if !seen[op.G] {
			seen[op.G] = true
			in.Graphs = append(in.Graphs, op.G)
		}
	}
	return in
}

// replay is one op's layer timings taken outside core.Approximate.
type replay struct {
	BuildMs  []float64 // one per skeleton built for the value tables
	EccUs    []float64 // per-query time of each table's eccentricity sweep
	SearchMs float64   // the nested search over the tables
	Queries  int       // eccentricity queries the nested search makes
}

// replayOp times the op's layers from outside: it builds replayTables
// skeletons at the op's Eq. (1) parameters over seeded sets sampled
// like the paper's S_i (each node with probability r/n), evaluates each
// skeleton's approximate eccentricity at every member, and then runs the
// Theorem 1.1 nested search — TopMass/BottomMass outside,
// Maximize/Minimize inside — over those precomputed value tables, with
// the search's defaults (Sets = n, δ = 1/n², the zero-value engine).
// The search time thus contains no skeleton or eccentricity work.
func replayOp(g *graph.Graph, p core.Params, mode core.Mode, seed int64) (replay, error) {
	var rep replay
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	tables := make([][]int64, replayTables)
	for t := range tables {
		var s []int
		for v := 0; v < n; v++ {
			if rng.Float64() < float64(p.R)/float64(n) {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			s = []int{rng.Intn(n)}
		}
		t0 := time.Now()
		sk := dist.BuildSkeletonWith(g, s, p.L, p.K, p.Eps, dist.BuildSkeletonOpts{})
		rep.BuildMs = append(rep.BuildMs, ms(time.Since(t0)))
		t0 = time.Now()
		vals := make([]int64, len(s))
		for j, v := range s {
			vals[j] = sk.ApproxEccentricity(v)
		}
		rep.EccUs = append(rep.EccUs, float64(time.Since(t0))/1e3/float64(len(s)))
		sk.Release()
		tables[t] = vals
	}
	t0 := time.Now()
	queries, err := nestedSearch(tables, n, p.R, mode, rng)
	rep.SearchMs = ms(time.Since(t0))
	rep.Queries = queries
	return rep, err
}

// nestedSearch runs the outer mass search over n indices, each of which
// runs an inner optimisation over tables[i mod len(tables)], and returns
// how many distinct inner values were read plus one final sweep of the
// chosen table (Approximate re-evaluates the chosen set exactly).
func nestedSearch(tables [][]int64, n, r int, mode core.Mode, rng *rand.Rand) (int, error) {
	var engine core.Options
	delta := 1 / float64(n*n)
	queries := 0
	outer := qdist.Procedure{
		Name: "replay-outer", SetupRounds: 1, EvalRounds: 1, Domain: uint64(n),
		Value: func(i uint64) int64 {
			tab := tables[int(i)%len(tables)]
			inner := qdist.Procedure{
				Name: "replay-inner", SetupRounds: 1, EvalRounds: 1, Domain: uint64(len(tab)),
				Value: func(x uint64) int64 { queries++; return tab[x] },
			}
			var res qdist.Result
			var err error
			if mode == core.DiameterMode {
				res, err = qdist.Maximize(inner, 1/float64(len(tab)), delta, engine.Engine, rng)
			} else {
				res, err = qdist.Minimize(inner, 1/float64(len(tab)), delta, engine.Engine, rng)
			}
			if err != nil {
				panic(err) // the replay's procedures are valid by construction
			}
			return res.Value
		},
	}
	rho := 0.5 * float64(r) / float64(n)
	var res qdist.Result
	var err error
	if mode == core.DiameterMode {
		res, err = qdist.TopMass(outer, rho, delta, engine.Engine, rng)
	} else {
		res, err = qdist.BottomMass(outer, rho, delta, engine.Engine, rng)
	}
	if err != nil {
		return 0, err
	}
	return queries + len(tables[int(res.X)%len(tables)]), nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
