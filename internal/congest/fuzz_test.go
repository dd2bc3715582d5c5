package congest

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qcongest/internal/graph"
)

// scriptProc is a fuzz-driven node: each round it sends to a
// script-selected subset of its neighbors, at most one message per edge
// (always legal under any Capacity >= 1), for a script-derived number of
// rounds. It is a pure function of (node ID, round, script), so two runs
// over the same script are schedule-identical.
type scriptProc struct {
	script []byte
	rounds int
	env    *Env
}

func (p *scriptProc) Init(env *Env) { p.env = env }

func (p *scriptProc) at(i int) byte {
	return p.script[((i%len(p.script))+len(p.script))%len(p.script)]
}

func (p *scriptProc) Step(round int, inbox []Received) ([]Send, bool) {
	if round >= p.rounds {
		return nil, true
	}
	var out []Send
	for j, a := range p.env.Neighbors {
		b := p.at(p.env.ID*131 + round*31 + j*7)
		if b&3 == 0 { // send on ~1/4 of the incident edges
			out = append(out, Send{To: a.To, Msg: Message{Kind: b, A: int64(round), B: int64(p.env.ID)}})
		}
	}
	return out, round == p.rounds-1
}

// burstProc sends `count` copies along one edge in round 0: the probe for
// the exact ErrCongestion threshold.
type burstProc struct {
	count int
	env   *Env
}

func (p *burstProc) Init(env *Env) { p.env = env }

func (p *burstProc) Step(round int, inbox []Received) ([]Send, bool) {
	if round != 0 || p.env.ID != 0 {
		return nil, true
	}
	out := make([]Send, p.count)
	for i := range out {
		out[i] = Send{To: p.env.Neighbors[0].To, Msg: Message{Kind: 1, A: int64(i)}}
	}
	return out, true
}

// FuzzSimCongestion drives random schedules through a standalone Run and
// through four copies of the same job in a concurrent RunBatch, and
// checks that (1) every batched copy is bit-identical to the standalone
// run — Stats, ordered Trace, and error text — and (2) Stats stay
// internally consistent under arbitrary procs. The companion
// TestCongestionThreshold pins the exact ErrCongestion boundary over its
// whole (constant) domain.
func FuzzSimCongestion(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(1), uint8(3), []byte{0, 1, 2, 3})
	f.Add(int64(2), uint8(20), uint8(40), uint8(2), uint8(5), []byte{7, 0, 0, 128, 9})
	f.Add(int64(3), uint8(3), uint8(3), uint8(1), uint8(1), []byte{0})
	f.Add(int64(4), uint8(50), uint8(99), uint8(3), uint8(6), []byte{255, 4, 0, 33, 0, 0, 18})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, capRaw, roundsRaw uint8, script []byte) {
		if len(script) == 0 {
			t.Skip()
		}
		n := 2 + int(nRaw)%62
		m := n - 1 + int(mRaw)%(2*n)
		capacity := 1 + int(capRaw)%3
		rounds := 1 + int(roundsRaw)%6
		g := graph.RandomConnected(n, m, rand.New(rand.NewSource(seed)))

		job := func(log *[]traceRec) BatchJob {
			return BatchJob{G: g, Mk: func(int) Proc { return &scriptProc{script: script, rounds: rounds} }, Opts: Options{
				Capacity:  capacity,
				MaxRounds: rounds + 2,
				Seed:      seed,
				Trace: func(round, from, to int, msg Message) {
					*log = append(*log, traceRec{round, from, to, msg})
				},
			}}
		}
		var seq []traceRec
		solo := job(&seq)
		stats, err := RunProcs(solo.G, solo.Mk, solo.Opts)
		logs := make([][]traceRec, 4)
		jobs := make([]BatchJob, len(logs))
		for j := range jobs {
			jobs[j] = job(&logs[j])
		}
		for j, res := range RunBatch(jobs, len(jobs)) {
			if res.Stats != stats {
				t.Fatalf("batch job %d: stats %+v != standalone %+v", j, res.Stats, stats)
			}
			if !reflect.DeepEqual(logs[j], seq) {
				t.Fatalf("batch job %d: trace diverged (%d vs %d entries)", j, len(logs[j]), len(seq))
			}
			if (res.Err == nil) != (err == nil) || (err != nil && res.Err.Error() != err.Error()) {
				t.Fatalf("batch job %d: err %v != standalone %v", j, res.Err, err)
			}
		}

		// Stats integrity under an arbitrary schedule: the trace is the
		// ground truth the counters must agree with.
		if err != nil {
			t.Fatalf("scripted schedule must be legal (<= 1 msg/edge/round): %v", err)
		}
		if int64(len(seq)) != stats.Messages {
			t.Fatalf("stats counted %d messages, trace saw %d", stats.Messages, len(seq))
		}
		if stats.MaxEdgeLoad > capacity {
			t.Fatalf("MaxEdgeLoad %d exceeds capacity %d without an error", stats.MaxEdgeLoad, capacity)
		}
		if stats.BusiestVolume > stats.Messages {
			t.Fatalf("busiest round volume %d exceeds total %d", stats.BusiestVolume, stats.Messages)
		}
		perRound := map[int]int64{}
		for _, e := range seq {
			perRound[e.round]++
		}
		if perRound[stats.BusiestRound] != stats.BusiestVolume && stats.Messages > 0 {
			t.Fatalf("busiest round %d carried %d messages, stats claim %d",
				stats.BusiestRound, perRound[stats.BusiestRound], stats.BusiestVolume)
		}
	})
}

// TestCongestionThreshold pins the exact bandwidth boundary: k messages
// on one edge succeed for k <= Capacity with MaxEdgeLoad = k, and
// ErrCongestion fires at exactly Capacity+1. The domain is tiny and
// constant, so it lives here as a table test rather than inside the fuzz
// body.
func TestCongestionThreshold(t *testing.T) {
	two := graph.Path(2)
	for capacity := 1; capacity <= 4; capacity++ {
		okStats, err := RunProcs(two, func(int) Proc { return &burstProc{count: capacity} }, Options{Capacity: capacity})
		if err != nil {
			t.Fatalf("%d messages within capacity %d errored: %v", capacity, capacity, err)
		}
		if okStats.MaxEdgeLoad != capacity {
			t.Fatalf("MaxEdgeLoad = %d, want %d", okStats.MaxEdgeLoad, capacity)
		}
		if _, err := RunProcs(two, func(int) Proc { return &burstProc{count: capacity + 1} }, Options{
			Capacity: capacity,
		}); !errors.Is(err, ErrCongestion) {
			t.Fatalf("%d messages over capacity %d: err = %v, want ErrCongestion", capacity+1, capacity, err)
		}
	}
}

type traceRec struct {
	round, from, to int
	msg             Message
}
