package congest

import (
	"math/rand"
	"testing"

	"qcongest/internal/graph"
)

// gossipProc saturates every directed edge with one message per round for
// a fixed number of rounds: the maximal legal load under Capacity 1, so
// the benchmark measures pure engine overhead (congestion accounting,
// inbox routing, neighbor checks) rather than algorithm logic.
type gossipProc struct {
	rounds int
	env    *Env
	out    []Send
}

func (p *gossipProc) Init(env *Env) {
	p.env = env
	p.out = make([]Send, len(env.Neighbors))
	for i, a := range env.Neighbors {
		p.out[i] = Send{To: a.To, Msg: Message{Kind: 7}}
	}
}

func (p *gossipProc) Step(round int, inbox []Received) ([]Send, bool) {
	if round >= p.rounds {
		return nil, true
	}
	for i := range p.out {
		p.out[i].Msg.A = int64(round)
		p.out[i].Msg.B = int64(len(inbox))
	}
	return p.out, round == p.rounds-1
}

func benchFlood(b *testing.B, n, m, rounds int) {
	rng := rand.New(rand.NewSource(int64(n)))
	g := graph.RandomConnected(n, m, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := RunProcs(g, func(int) Proc { return &gossipProc{rounds: rounds} }, Options{
			MaxRounds: rounds + 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Rounds != rounds+1 {
			b.Fatalf("rounds = %d, want %d", stats.Rounds, rounds+1)
		}
	}
}

func BenchmarkSimFloodN512(b *testing.B)  { benchFlood(b, 512, 2048, 64) }
func BenchmarkSimFloodN1024(b *testing.B) { benchFlood(b, 1024, 4096, 64) }

// BenchmarkSimBatchN512 runs 8 independent 512-node floods through
// RunBatch: the sweep shape, where buffer pooling across runs and
// cross-run concurrency carry the win.
func BenchmarkSimBatchN512(b *testing.B) {
	rng := rand.New(rand.NewSource(512))
	g := graph.RandomConnected(512, 2048, rng)
	jobs := make([]BatchJob, 8)
	for j := range jobs {
		jobs[j] = BatchJob{
			G:    g,
			Mk:   func(int) Proc { return &gossipProc{rounds: 64} },
			Opts: Options{MaxRounds: 66, Seed: int64(j)},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range RunBatch(jobs, 0) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}
