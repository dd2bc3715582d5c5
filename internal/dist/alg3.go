// Executable Algorithm 3: multi-source (1+ε)-approximate ℓ-hop-bounded
// SSSP. The b sources run staggered copies of Algorithm 1, each starting
// after a random delay (SampleDelays), and every logical round is
// stretched into C = SubroundsPerLogical(n) physical subrounds so one
// edge can carry the C-in-expectation colliding broadcasts; announcements
// that still collide queue and drain one per edge per physical round, so
// the bandwidth constraint is never violated. The run opens with the
// leader's pipelined O(D + b)-round dissemination of the delay vector.
//
// As with Algorithm 1 the overall schedule is a fixed constant of
// (n, W, ℓ, ε, b, D) — exactly the Alg3Schedule formula internal/core
// charges — and unused rounds are idle padding.

package dist

import (
	"fmt"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// Message kinds of Algorithm 3. kindDelay carries (token index, delay)
// during the leader's dissemination; kindAlg3 carries
// (source index, scale, value, hops) relaxations.
const (
	kindDelay uint8 = 33
	kindAlg3  uint8 = 34
)

// alg3Proc is one node of the executable Algorithm 3.
type alg3Proc struct {
	sources []int
	delays  []int
	l       int
	eps     Eps
	imax    int
	c       int64 // subrounds per logical round
	base    int64 // D + b: delay-dissemination prologue
	phaseL  int64 // (1+2T)ℓ + 2 logical rounds per scale
	total   int64 // fixed overall schedule

	env     *congest.Env
	weights map[int]int64 // neighbor ID -> edge weight
	den     int64
	capVal  int64
	srcIdx  int // index of this node in sources, or -1
	started []bool

	tokens   map[int]int // delay tokens learned during the prologue
	nextSend []int       // per-neighbor index of the next delay token to forward

	best  [][]int64 // per (source, scale) value
	hops  [][]int64 // hop count witnessing best
	queue [][]qmsg  // per-neighbor pending announcements
}

type qmsg struct{ j, i int }

var _ congest.Proc = (*alg3Proc)(nil)

// Init implements congest.Proc.
func (p *alg3Proc) Init(env *congest.Env) {
	p.env = env
	p.weights = neighborWeights(env)
	p.den = p.eps.Den(p.l)
	p.capVal = (1 + 2*p.eps.T) * int64(p.l)
	p.srcIdx = -1
	for j, s := range p.sources {
		if s == env.ID {
			p.srcIdx = j
			break
		}
	}
	p.started = make([]bool, p.imax+1)
	p.tokens = make(map[int]int)
	if env.ID == 0 {
		for j, d := range p.delays {
			p.tokens[j] = d
		}
	}
	p.nextSend = make([]int, len(env.Neighbors))
	p.best = make([][]int64, len(p.sources))
	p.hops = make([][]int64, len(p.sources))
	for j := range p.best {
		p.best[j] = make([]int64, p.imax+1)
		p.hops[j] = make([]int64, p.imax+1)
		for i := range p.best[j] {
			p.best[j][i] = graph.Inf
		}
	}
	p.queue = make([][]qmsg, len(env.Neighbors))
}

// Step implements congest.Proc.
func (p *alg3Proc) Step(round int, inbox []congest.Received) ([]congest.Send, bool) {
	r := int64(round)
	if r >= p.total {
		return nil, true
	}
	if r < p.base {
		return p.prologue(inbox), false
	}

	t := (r - p.base) / p.c // logical round

	// Absorb relaxations (late arrivals stay sound: every carried value
	// is the length of a real path with its hop count).
	for _, rcv := range inbox {
		if rcv.Msg.Kind != kindAlg3 {
			continue
		}
		j, i := int(rcv.Msg.A), int(rcv.Msg.B)
		if j < 0 || j >= len(p.sources) || i < 0 || i > p.imax {
			continue
		}
		w := ceilDiv(p.weightTo(rcv.From)*p.den, int64(1)<<uint(i))
		cand, nh := rcv.Msg.C+w, rcv.Msg.D+1
		if nh <= int64(p.l) && cand <= p.capVal && cand < p.best[j][i] {
			p.best[j][i] = cand
			p.hops[j][i] = nh
			p.enqueue(j, i)
		}
	}

	// A source opens each of its scales on schedule: scale i begins at
	// logical round delay_j + i·phaseL.
	if p.srcIdx >= 0 {
		d := int64(p.delays[p.srcIdx])
		for i := 0; i <= p.imax; i++ {
			if !p.started[i] && t >= d+int64(i)*p.phaseL {
				p.started[i] = true
				p.best[p.srcIdx][i] = 0
				p.hops[p.srcIdx][i] = 0
				p.enqueue(p.srcIdx, i)
			}
		}
	}

	// Drain one queued announcement per neighbor per physical round.
	var out []congest.Send
	if r < p.total-1 {
		for ni, a := range p.env.Neighbors {
			if len(p.queue[ni]) == 0 {
				continue
			}
			m := p.queue[ni][0]
			p.queue[ni] = p.queue[ni][1:]
			out = append(out, congest.Send{To: a.To, Msg: congest.Message{
				Kind: kindAlg3,
				A:    int64(m.j), B: int64(m.i),
				C: p.best[m.j][m.i], D: p.hops[m.j][m.i],
			}})
		}
	}
	return out, r == p.total-1
}

// prologue is the pipelined leader broadcast of the delay vector: each
// round, each edge forwards the lowest-index token its tail knows and
// has not yet sent on that edge, so token j reaches a node at hop
// distance h by round j+h — all tokens everywhere within D + b rounds.
func (p *alg3Proc) prologue(inbox []congest.Received) []congest.Send {
	for _, rcv := range inbox {
		if rcv.Msg.Kind == kindDelay {
			p.tokens[int(rcv.Msg.A)] = int(rcv.Msg.B)
		}
	}
	var out []congest.Send
	for ni, a := range p.env.Neighbors {
		idx := p.nextSend[ni]
		if d, ok := p.tokens[idx]; ok && idx < len(p.delays) {
			p.nextSend[ni]++
			out = append(out, congest.Send{To: a.To, Msg: congest.Message{
				Kind: kindDelay, A: int64(idx), B: int64(d),
			}})
		}
	}
	return out
}

// enqueue schedules an announcement of (source j, scale i) to every
// neighbor, deduplicating so the eventual send carries the latest value.
func (p *alg3Proc) enqueue(j, i int) {
	for ni := range p.queue {
		dup := false
		for _, m := range p.queue[ni] {
			if m.j == j && m.i == i {
				dup = true
				break
			}
		}
		if !dup {
			p.queue[ni] = append(p.queue[ni], qmsg{j, i})
		}
	}
}

func (p *alg3Proc) weightTo(from int) int64 {
	w, ok := p.weights[from]
	if !ok {
		panic("dist: Algorithm 3 message from non-neighbor")
	}
	return w
}

// RunAlg3 executes Algorithm 3 for the given sources and delays (length
// must match; use SampleDelays to draw them) with hop budget l and
// rounding parameter eps. It returns one DistEstimate per source and the
// exact simulation statistics; the measured rounds equal the fixed
// schedule D + b + (bC+1 + alg1 + 1)·C that internal/core charges.
func RunAlg3(g *graph.Graph, sources []int, delays []int, l int, eps Eps, opts congest.Options) ([]*DistEstimate, congest.Stats, error) {
	if len(sources) == 0 {
		return nil, congest.Stats{}, fmt.Errorf("dist: Algorithm 3 needs at least one source")
	}
	if len(delays) != len(sources) {
		return nil, congest.Stats{}, fmt.Errorf("dist: %d delays for %d sources", len(delays), len(sources))
	}
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, congest.Stats{}, fmt.Errorf("dist: Algorithm 3 source %d out of range [0,%d)", s, g.N())
		}
	}
	if l < 1 {
		l = 1
	}
	if eps.T < 1 {
		eps.T = 1
	}
	n := g.N()
	b := len(sources)
	c := int64(SubroundsPerLogical(n))
	maxDelay := int64(b)*c + 1
	for j, d := range delays {
		if int64(d) >= maxDelay {
			return nil, congest.Stats{}, fmt.Errorf("dist: delay[%d] = %d >= schedule bound %d", j, d, maxDelay)
		}
	}
	imax := IMax(n, maxW(g), eps)
	phaseL := (1+2*eps.T)*int64(l) + 2
	base := g.UnweightedDiameter() + int64(b)
	total := base + (maxDelay+int64(imax+1)*phaseL+1)*c
	if opts.MaxRounds == 0 {
		opts.MaxRounds = int(total) + 8
	}

	nodes := make([]*alg3Proc, n)
	procs := make([]congest.Proc, n)
	for i := range procs {
		nodes[i] = &alg3Proc{
			sources: sources, delays: delays, l: l, eps: eps,
			imax: imax, c: c, base: base, phaseL: phaseL, total: total,
		}
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
	out := make([]*DistEstimate, b)
	for j, src := range sources {
		est := &DistEstimate{Source: src, Num: make([]int64, n), Den: eps.Den(l)}
		for v, p := range nodes {
			num := graph.Inf
			for i := 0; i <= imax; i++ {
				if bh := p.best[j][i]; bh != graph.Inf {
					if scaled := bh * (int64(1) << uint(i)); scaled < num {
						num = scaled
					}
				}
			}
			est.Num[v] = num
		}
		out[j] = est
	}
	return out, stats, nil
}
