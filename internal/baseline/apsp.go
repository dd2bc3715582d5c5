// Package baseline implements the comparators the paper's Table 1 is
// measured against:
//
//   - An executable classical exact APSP in the CONGEST simulator
//     (queued multi-source Bellman-Ford, the Θ(n)-round regime of
//     Holzer-Wattenhofer / Peleg-Roditty-Tal for unweighted graphs and
//     the exact-weighted baseline of Bernstein-Nanongkai's Õ(n) row;
//     measured, not asymptotically optimal — see DESIGN.md).
//   - An executable quantum unweighted diameter in the style of
//     Le Gall-Magniez: quantum maximum finding over node eccentricities
//     with an O(D)-round BFS evaluation, giving Õ(√n·D) measured rounds
//     (their Õ(√(nD)) uses additional tricks; the analytic row keeps the
//     paper's exponent, and the executable one preserves the √n scaling
//     that separates quantum from classical).
//   - Analytic Õ(·) cost models for every row of Table 1.
package baseline

import (
	"fmt"
	"sort"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

const kindAPSP uint8 = 41

// apspProc is a queued multi-source Bellman-Ford node: every node floods
// (source, distance) tokens, forwarding at most one token per edge per
// round. The protocol is exact on convergence for any positive weights.
// Bookkeeping is flat: queue membership is a []bool indexed by source
// (not a map), the queue is a head-indexed slice preallocated to n that
// rewinds whenever it drains (it can still grow past n if sources
// re-improve faster than the queue empties), and incoming tokens
// resolve their arc weight through a sorted neighbor index built once
// at Init instead of a linear scan per token.
type apspProc struct {
	budget int

	env    *congest.Env
	dist   []int64
	queued []bool
	queue  []int
	qhead  int
	// nbTo/nbW is the neighbor table sorted by node id: the arc index of
	// a sender is a binary search, and parallel edges resolve to the
	// minimum weight (the only one a shortest-path token can use).
	nbTo []int32
	nbW  []int64
}

var _ congest.Proc = (*apspProc)(nil)

func (p *apspProc) Init(env *congest.Env) {
	p.env = env
	p.dist = make([]int64, env.N)
	for i := range p.dist {
		p.dist[i] = graph.Inf
	}
	p.dist[env.ID] = 0
	p.queued = make([]bool, env.N)
	p.queued[env.ID] = true
	p.queue = make([]int, 1, env.N)
	p.queue[0] = env.ID
	p.qhead = 0

	p.nbTo = make([]int32, 0, len(env.Neighbors))
	p.nbW = make([]int64, 0, len(env.Neighbors))
	for _, a := range env.Neighbors {
		p.nbTo = append(p.nbTo, int32(a.To))
		p.nbW = append(p.nbW, a.W)
	}
	sort.Sort(&neighborIndex{to: p.nbTo, w: p.nbW})
}

func (p *apspProc) Step(round int, inbox []congest.Received) ([]congest.Send, bool) {
	for _, rcv := range inbox {
		if rcv.Msg.Kind != kindAPSP {
			continue
		}
		src := int(rcv.Msg.A)
		w := p.weightTo(rcv.From)
		if nd := rcv.Msg.B + w; nd < p.dist[src] {
			p.dist[src] = nd
			if !p.queued[src] {
				p.queued[src] = true
				p.queue = append(p.queue, src)
			}
		}
	}
	var out []congest.Send
	if p.qhead < len(p.queue) {
		src := p.queue[p.qhead]
		p.qhead++
		if p.qhead == len(p.queue) {
			p.queue = p.queue[:0]
			p.qhead = 0
		}
		p.queued[src] = false
		out = make([]congest.Send, 0, len(p.env.Neighbors))
		for _, a := range p.env.Neighbors {
			out = append(out, congest.Send{To: a.To, Msg: congest.Message{Kind: kindAPSP, A: int64(src), B: p.dist[src]}})
		}
	}
	return out, p.qhead == len(p.queue) || round >= p.budget
}

// weightTo resolves the (minimum) arc weight from a neighbor by binary
// search over the sorted neighbor index.
func (p *apspProc) weightTo(from int) int64 {
	lo, hi := 0, len(p.nbTo)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(p.nbTo[mid]) < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.nbTo) && int(p.nbTo[lo]) == from {
		return p.nbW[lo]
	}
	panic("baseline: message from non-neighbor")
}

// neighborIndex sorts the (to, w) columns together by node id, weight
// ascending within parallel edges so the binary search lands on the
// minimum weight.
type neighborIndex struct {
	to []int32
	w  []int64
}

func (s *neighborIndex) Len() int { return len(s.to) }
func (s *neighborIndex) Less(i, j int) bool {
	if s.to[i] != s.to[j] {
		return s.to[i] < s.to[j]
	}
	return s.w[i] < s.w[j]
}
func (s *neighborIndex) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// RunAPSP executes the classical exact APSP baseline and returns the full
// distance matrix plus the measured round statistics. The budget bounds
// pathological schedules; quiescence normally ends the run much earlier.
func RunAPSP(g *graph.Graph, budget int, opts congest.Options) ([][]int64, congest.Stats, error) {
	budget, opts = apspDefaults(g.N(), budget, opts)
	nodes := make([]*apspProc, g.N())
	procs := make([]congest.Proc, g.N())
	for i := range procs {
		nodes[i] = &apspProc{budget: budget}
		procs[i] = nodes[i]
	}
	sim, err := congest.NewSim(g, procs, opts)
	if err != nil {
		return nil, congest.Stats{}, err
	}
	stats, err := sim.Run()
	if err != nil {
		return nil, stats, err
	}
	out := make([][]int64, g.N())
	for v, p := range nodes {
		row := make([]int64, g.N())
		for s := 0; s < g.N(); s++ {
			row[s] = p.dist[s]
		}
		out[v] = row
	}
	return out, stats, nil
}

// ClassicalDiameter computes the exact weighted diameter (and radius) via
// the APSP baseline, returning the measured CONGEST rounds: the paper's
// "classical exact / (3/2−ε)" Table 1 rows, all Θ(n) in this regime.
func ClassicalDiameter(g *graph.Graph, opts congest.Options) (diam, radius int64, stats congest.Stats, err error) {
	d, stats, err := RunAPSP(g, 0, opts)
	if err != nil {
		return 0, 0, stats, err
	}
	diam, radius = diamRadius(d)
	return diam, radius, stats, nil
}

// apspDefaults is the single source of the APSP run defaults: RunAPSP and
// ClassicalDiameterBatch must hit the same round limits or the batch's
// "identical to ClassicalDiameter" guarantee silently breaks.
func apspDefaults(n, budget int, opts congest.Options) (int, congest.Options) {
	if budget <= 0 {
		budget = 8 * n * n
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = budget + 8
	}
	return budget, opts
}

func diamRadius(d [][]int64) (diam, radius int64) {
	radius = graph.Inf
	for v := range d {
		ecc := int64(0)
		for s := range d[v] {
			if d[v][s] > ecc {
				ecc = d[v][s]
			}
		}
		if ecc > diam {
			diam = ecc
		}
		if ecc < radius {
			radius = ecc
		}
	}
	return diam, radius
}

// ClassicalDiameterBatch runs the APSP baseline over many networks
// concurrently through congest.RunBatch (at most `parallelism` sims in
// flight; <= 0 selects GOMAXPROCS). Per-network results are identical to
// ClassicalDiameter with default Options — each simulation is
// independent — and are returned in input order. The first simulation
// error aborts the batch report.
func ClassicalDiameterBatch(gs []*graph.Graph, parallelism int) (diams, radii []int64, stats []congest.Stats, err error) {
	jobs := make([]congest.BatchJob, len(gs))
	nodes := make([][]*apspProc, len(gs))
	for i, g := range gs {
		budget, jobOpts := apspDefaults(g.N(), 0, congest.Options{})
		nodes[i] = make([]*apspProc, g.N())
		procs := nodes[i]
		jobs[i] = congest.BatchJob{
			G: g,
			Mk: func(id int) congest.Proc {
				p := &apspProc{budget: budget}
				procs[id] = p
				return p
			},
			Opts: jobOpts,
		}
	}
	results := congest.RunBatch(jobs, parallelism)
	diams = make([]int64, len(gs))
	radii = make([]int64, len(gs))
	stats = make([]congest.Stats, len(gs))
	for i, res := range results {
		stats[i] = res.Stats
		if res.Err != nil {
			return nil, nil, stats, fmt.Errorf("baseline: batch APSP on graph %d: %w", i, res.Err)
		}
		d := make([][]int64, len(nodes[i]))
		for v, p := range nodes[i] {
			d[v] = p.dist
		}
		diams[i], radii[i] = diamRadius(d)
	}
	return diams, radii, stats, nil
}
