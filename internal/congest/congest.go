// Package congest implements a synchronous CONGEST-model network simulator
// (§2.2 of the paper). The network is a weighted graph; in each round every
// node receives the messages sent to it in the previous round, performs
// unbounded local computation, and sends at most Capacity messages of
// O(log n) bits to each neighbor. The simulator enforces the bandwidth
// constraint (a violation is an error, not silent queueing: CONGEST
// algorithms are responsible for their own scheduling) and counts rounds
// and messages exactly.
//
// Round complexity is a combinatorial property of the schedule, so the
// simulator reproduces the paper's cost measure exactly; wall-clock time is
// irrelevant to the model. Each run therefore steps its nodes on one
// goroutine in node order, which makes Stats and every Trace callback
// sequence a pure function of the inputs; independent runs go in parallel
// one level up, through RunBatch and ForEach. See DESIGN.md §2.3 for the
// determinism contract.
package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"qcongest/internal/graph"
)

// Message is one CONGEST message of O(log n) bits: a kind tag and up to
// four word-sized fields. One Message consumes one unit of per-edge
// bandwidth.
type Message struct {
	Kind       uint8
	A, B, C, D int64
}

// Received pairs a message with its sender. Inbox slices are reused
// between rounds: a Proc must copy anything it wants to keep past the
// Step call that delivered it.
type Received struct {
	From int
	Msg  Message
}

// Send pairs a message with its destination, which must be a neighbor.
type Send struct {
	To  int
	Msg Message
}

// Env is the local knowledge a node has at initialization: its identifier,
// the network size, its incident edges with weights, and a private PRNG
// seeded deterministically from the run seed and node ID.
type Env struct {
	ID        int
	N         int
	Neighbors []graph.Arc
	Rand      *rand.Rand
}

// Proc is a node procedure. Init is called once before round 0. Step is
// called every round with the inbox (messages sent to this node in the
// previous round) and returns the outbox plus whether this node has
// produced its final output. A done node keeps receiving Step calls (its
// links still carry traffic) but typically returns an empty outbox.
type Proc interface {
	Init(env *Env)
	Step(round int, inbox []Received) (outbox []Send, done bool)
}

// Stats aggregates the cost of a run.
type Stats struct {
	Rounds        int   // rounds until all nodes were done
	Messages      int64 // total messages delivered
	MaxEdgeLoad   int   // max messages on one directed edge in one round
	BusiestRound  int   // round index with the most traffic
	BusiestVolume int64 // messages in that round
}

// String returns a short human-readable summary of the run cost.
func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d msgs=%d maxEdgeLoad=%d", s.Rounds, s.Messages, s.MaxEdgeLoad)
}

// ErrCongestion is returned when a node exceeds the per-edge bandwidth.
var ErrCongestion = errors.New("congest: per-edge bandwidth exceeded")

// ErrRoundLimit is returned when the round limit is hit before all nodes
// finish.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// Options configure a run.
type Options struct {
	// Capacity is the number of messages each directed edge can carry per
	// round. The model allows B = O(log n) bits and one Message is O(log n)
	// bits, so the default is 1.
	Capacity int
	// MaxRounds aborts runaway algorithms. Default 4*n^2 + 64.
	MaxRounds int
	// Seed drives all node-local randomness.
	Seed int64
	// Trace, when set, observes every delivered message. Round is the
	// Step index during which the message was sent. Used by the Server-
	// model simulation (Lemma 4.1) to count party-crossing traffic.
	// Within one run, Trace is always invoked from a single goroutine,
	// in a deterministic order: messages are observed in sender-node
	// order, and within one sender in outbox order. (Across concurrent
	// RunBatch jobs each run invokes its own Trace concurrently with the
	// others — see RunBatch.)
	Trace func(round, from, to int, msg Message)
}

func (o Options) withDefaults(n int) Options {
	if o.Capacity <= 0 {
		o.Capacity = 1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4*n*n + 64
	}
	return o
}

// lazySource defers the expensive 607-word rngSource seeding until a
// node actually draws randomness: most procs never touch Env.Rand, and
// eager per-node seeding dominated the engine profile at n ≥ 512. The
// wrapped source is exactly rand.NewSource(seed), and it is exposed as a
// Source64 like rngSource itself, so every rand.Rand method stream is
// bit-identical to an eagerly seeded generator.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) fill() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.fill().Int63() }
func (s *lazySource) Uint64() uint64  { return s.fill().Uint64() }
func (s *lazySource) Seed(seed int64) { s.src = rand.NewSource(seed).(rand.Source64) }

// csr is a flat, CSR-indexed view of the network's directed arcs: node
// i's arcs occupy positions start[i]..start[i+1] of `to`, sorted by
// destination, so a send (i -> v) resolves to a dense arc slot by binary
// search instead of a map lookup. Parallel arcs to the same destination
// share the slot of their first sorted occurrence, matching the
// per-(from,to) bandwidth accounting of the model (parallel edges share
// one logical channel, as the previous map-keyed engine enforced).
type csr struct {
	start []int32
	to    []int32
}

func buildCSR(g *graph.Graph) csr {
	n := g.N()
	c := csr{start: make([]int32, n+1)}
	total := 0
	for i := 0; i < n; i++ {
		total += g.Degree(i)
	}
	c.to = make([]int32, 0, total)
	for i := 0; i < n; i++ {
		lo := len(c.to)
		for _, a := range g.Neighbors(i) {
			c.to = append(c.to, int32(a.To))
		}
		seg := c.to[lo:]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
		c.start[i+1] = int32(len(c.to))
	}
	return c
}

// arc returns the dense slot of the directed channel from -> to, or -1 if
// the nodes are not adjacent. Parallel arcs resolve to one shared slot.
func (c *csr) arc(from, to int) int32 {
	lo, hi := c.start[from], c.start[from+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if c.to[mid] < int32(to) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.start[from+1] && c.to[lo] == int32(to) {
		return lo
	}
	return -1
}

// simBuffers is the per-run scratch state. Buffers are recycled through a
// sync.Pool so batched sweeps (RunBatch) do not re-allocate inboxes and
// load tables per run. Invariant: edgeLoad is all-zero whenever the
// buffer sits in the pool (reset via the dirty list, never a full clear).
type simBuffers struct {
	inboxes     [][]Received
	nextInboxes [][]Received
	done        []bool
	edgeLoad    []int32
	dirty       []int32
}

var bufPool sync.Pool

func getBuffers(n, arcs int) *simBuffers {
	b, _ := bufPool.Get().(*simBuffers)
	if b == nil {
		b = &simBuffers{}
	}
	b.inboxes = resizeInboxes(b.inboxes, n)
	b.nextInboxes = resizeInboxes(b.nextInboxes, n)
	b.done = resizeBools(b.done, n)
	if cap(b.edgeLoad) < arcs {
		b.edgeLoad = make([]int32, arcs)
	} else {
		b.edgeLoad = b.edgeLoad[:arcs]
	}
	b.dirty = b.dirty[:0]
	return b
}

// putBuffers re-establishes the zero-load invariant before returning the
// buffer to the pool.
func putBuffers(b *simBuffers) {
	b.resetLoads()
	bufPool.Put(b)
}

func (b *simBuffers) resetLoads() {
	for _, e := range b.dirty {
		b.edgeLoad[e] = 0
	}
	b.dirty = b.dirty[:0]
}

func resizeInboxes(s [][]Received, n int) [][]Received {
	if cap(s) < n {
		grown := make([][]Received, n)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = false
	}
	return s
}

// Sim is a configured simulation instance. Construct with NewSim, then Run.
type Sim struct {
	g     *graph.Graph
	procs []Proc
	opts  Options
	edges csr
}

// NewSim builds a simulator over network g where node i runs procs[i].
func NewSim(g *graph.Graph, procs []Proc, opts Options) (*Sim, error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("congest: %d procs for %d nodes", len(procs), g.N())
	}
	return &Sim{g: g, procs: procs, opts: opts.withDefaults(g.N()), edges: buildCSR(g)}, nil
}

// roundState carries the accounting a single round accumulates while
// sends are merged in node order.
type roundState struct {
	volume    int64
	anyActive bool
	doneCount int
}

// Run executes the simulation until every node reports done, returning the
// exact round/message statistics.
func (s *Sim) Run() (Stats, error) {
	n := s.g.N()
	for i := 0; i < n; i++ {
		s.procs[i].Init(&Env{
			ID:        i,
			N:         n,
			Neighbors: s.g.Neighbors(i),
			Rand:      rand.New(&lazySource{seed: s.opts.Seed*1_000_003 + int64(i)}),
		})
	}

	bufs := getBuffers(n, len(s.edges.to))
	defer putBuffers(bufs)

	var stats Stats
	rs := roundState{}
	for round := 0; ; round++ {
		if round >= s.opts.MaxRounds {
			return stats, fmt.Errorf("%w: %d rounds (limit %d)", ErrRoundLimit, round, s.opts.MaxRounds)
		}
		rs.volume = 0
		rs.anyActive = false
		for i := 0; i < n; i++ {
			out, d := s.procs[i].Step(round, bufs.inboxes[i])
			if err := s.deliver(round, i, out, d, bufs, &rs); err != nil {
				s.settleMaxLoad(bufs, &stats)
				return stats, err
			}
		}
		s.settleMaxLoad(bufs, &stats)
		stats.Messages += rs.volume
		if rs.volume > stats.BusiestVolume {
			stats.BusiestVolume = rs.volume
			stats.BusiestRound = round
		}
		if rs.doneCount == n && !rs.anyActive {
			stats.Rounds = round + 1
			return stats, nil
		}
		for i := 0; i < n; i++ {
			bufs.inboxes[i] = bufs.inboxes[i][:0]
		}
		bufs.inboxes, bufs.nextInboxes = bufs.nextInboxes, bufs.inboxes
		bufs.resetLoads()
	}
}

// settleMaxLoad folds the round's per-edge loads (the dirty list) into
// Stats.MaxEdgeLoad. Loads are clamped to Capacity so an aborting
// over-capacity send is excluded, exactly as the per-message accounting
// excluded it: a legal load of Capacity was necessarily observed on that
// same edge one message earlier.
func (s *Sim) settleMaxLoad(bufs *simBuffers, stats *Stats) {
	m := int32(stats.MaxEdgeLoad)
	cap32 := int32(s.opts.Capacity)
	for _, e := range bufs.dirty {
		l := bufs.edgeLoad[e]
		if l > cap32 {
			l = cap32
		}
		if l > m {
			m = l
		}
	}
	stats.MaxEdgeLoad = int(m)
}

// deliver merges one node's outbox into the next round's inboxes with
// exact congestion accounting. Run calls it in node order, which is what
// makes Stats and Trace deterministic.
func (s *Sim) deliver(round, i int, out []Send, d bool, bufs *simBuffers, rs *roundState) error {
	if d && !bufs.done[i] {
		bufs.done[i] = true
		rs.doneCount++
	}
	for _, snd := range out {
		slot := s.edges.arc(i, snd.To)
		if slot < 0 {
			return fmt.Errorf("congest: node %d sent to non-neighbor %d in round %d", i, snd.To, round)
		}
		load := bufs.edgeLoad[slot] + 1
		bufs.edgeLoad[slot] = load
		if load == 1 {
			bufs.dirty = append(bufs.dirty, slot)
		}
		if int(load) > s.opts.Capacity {
			return fmt.Errorf("%w: node %d -> %d sent %d messages in round %d (capacity %d)",
				ErrCongestion, i, snd.To, load, round, s.opts.Capacity)
		}
		bufs.nextInboxes[snd.To] = append(bufs.nextInboxes[snd.To], Received{From: i, Msg: snd.Msg})
		rs.volume++
		if s.opts.Trace != nil {
			s.opts.Trace(round, i, snd.To, snd.Msg)
		}
	}
	if len(out) > 0 {
		rs.anyActive = true
	}
	return nil
}

// RunProcs is a convenience wrapper: it builds one Proc per node via mk and
// runs the simulation.
func RunProcs(g *graph.Graph, mk func(id int) Proc, opts Options) (Stats, error) {
	procs := make([]Proc, g.N())
	for i := range procs {
		procs[i] = mk(i)
	}
	sim, err := NewSim(g, procs, opts)
	if err != nil {
		return Stats{}, err
	}
	return sim.Run()
}
