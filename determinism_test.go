// Determinism regression suite. Every simulation and every skeleton
// build runs sequentially, so the contract (DESIGN.md §2.3, §3.6) is
// about the parallelism that remains, across independent runs: a run's
// Stats, ordered Trace and report must not depend on what runs beside
// it. Part A pins that for every congest.Proc in the repository: a
// standalone run against concurrent copies of the same job on
// congest.ForEach, the scheduler RunBatch runs its jobs on. Part B runs
// each E1–E14 experiment driver twice, once with its across-point pools
// degraded to plain loops (GOMAXPROCS 1) and once fanned out, and
// asserts the full reports are identical; the second run also draws on
// the buffer pools the first left behind. Part C runs the
// skeleton-heavy drivers as concurrent copies, sharing the
// process-wide build arenas, against a solo run. Part D is the
// kernel-adversarial corpus (kernelDeterminismGraphs) that Part E
// sweeps; Part E extends the contract over the wire codecs: a graph decoded from the text edge
// list and from the binary varint-delta format must be
// indistinguishable — same digest, same exact eccentricities,
// byte-identical sketch numerators — so the serving layer may accept
// either encoding of a graph and answer from either without the caller
// being able to tell; Part F extends it over the cluster: a leader and
// its WAL-shipped replicas must serve byte-identical sketch numerators
// and exact metrics for every replicated graph, both directly and
// through the digest-routing proxy, which is the invariant that makes
// any-replica reads sound. CI runs this file with -count=3 under the
// `determinism` job.
package qcongest_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"qcongest/internal/baseline"
	"qcongest/internal/cluster"
	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/exp"
	"qcongest/internal/graph"
	"qcongest/internal/qsim"
	"qcongest/internal/svc"
)

type traceEntry struct {
	Round, From, To int
	Msg             congest.Message
}

// chatterProc exercises the engine's densest path: every node sends one
// message per incident edge per round, payload derived from its private
// PRNG, for a fixed number of rounds.
type chatterProc struct {
	rounds int
	env    *congest.Env
}

func (p *chatterProc) Init(env *congest.Env) { p.env = env }

func (p *chatterProc) Step(round int, inbox []congest.Received) ([]congest.Send, bool) {
	if round >= p.rounds {
		return nil, true
	}
	out := make([]congest.Send, 0, len(p.env.Neighbors))
	for _, a := range p.env.Neighbors {
		out = append(out, congest.Send{To: a.To, Msg: congest.Message{
			Kind: 9, A: int64(round), B: p.env.Rand.Int63(), C: int64(len(inbox)),
		}})
	}
	return out, round == p.rounds-1
}

// sameInConcurrentCopies runs run alone and then as four concurrent
// copies on congest.ForEach, the scheduler RunBatch runs its jobs on,
// and fails unless every copy returns what the solo run did.
func sameInConcurrentCopies(t *testing.T, run func() (any, error)) any {
	t.Helper()
	ref, err := run()
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	got, errs := make([]any, 4), make([]error, 4)
	congest.ForEach(4, 4, func(j int) { got[j], errs[j] = run() })
	for j := range got {
		if errs[j] != nil {
			t.Fatalf("concurrent copy %d: %v", j, errs[j])
		}
		if !reflect.DeepEqual(got[j], ref) {
			t.Errorf("concurrent copy %d diverged from the solo run", j)
		}
	}
	return ref
}

func TestDeterminismEngineWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gRand := graph.RandomConnected(60, 180, rng)
	gW := graph.RandomWeights(gRand, 9, rng)
	gFabric := graph.RandomWeights(graph.SpineLeaf(3, 5, 4, 2, 1), 7, rng)
	gBarbell := graph.Barbell(6, 5)
	eps := dist.EpsForN(gW.N())
	delays := dist.SampleDelays(3, gW.N(), rand.New(rand.NewSource(7)))

	workloads := []struct {
		name string
		run  func(opts congest.Options) (congest.Stats, error)
	}{
		{"bfs-tree/random", func(opts congest.Options) (congest.Stats, error) {
			_, _, stats, err := dist.RunBFSTree(gRand, 0, gRand.N(), opts)
			return stats, err
		}},
		{"alg1/weighted", func(opts congest.Options) (congest.Stats, error) {
			_, stats, err := dist.RunAlg1(gW, 1, 8, eps, opts)
			return stats, err
		}},
		{"alg3/weighted", func(opts congest.Options) (congest.Stats, error) {
			_, stats, err := dist.RunAlg3(gW, []int{0, 7, 19}, delays, 6, eps, opts)
			return stats, err
		}},
		{"apsp/barbell", func(opts congest.Options) (congest.Stats, error) {
			_, stats, err := baseline.RunAPSP(gBarbell, 0, opts)
			return stats, err
		}},
		{"chatter/spine-leaf", func(opts congest.Options) (congest.Stats, error) {
			opts.MaxRounds = 34
			opts.Seed = 5
			return congest.RunProcs(gFabric, func(int) congest.Proc { return &chatterProc{rounds: 32} }, opts)
		}},
	}

	type engineRun struct {
		Stats congest.Stats
		Log   []traceEntry
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ref := sameInConcurrentCopies(t, func() (any, error) {
				var r engineRun
				var err error
				r.Stats, err = w.run(congest.Options{Trace: func(round, from, to int, msg congest.Message) {
					r.Log = append(r.Log, traceEntry{round, from, to, msg})
				}})
				return r, err
			})
			if len(ref.(engineRun).Log) == 0 {
				t.Fatalf("workload produced no traffic; not a useful determinism probe")
			}
		})
	}
}

type driver struct {
	name string
	run  func() (any, error)
}

// skeletonDrivers are the drivers whose points run core.Approximate, and
// so skeleton builds, concurrently.
var skeletonDrivers = []driver{
	{"E1/table1", func() (any, error) { return exp.MeasuredTable1(40, 3) }},
	{"E2/scaling-n", func() (any, error) {
		pts, fit, err := exp.ScalingInN([]int{16, 24}, 4, core.DiameterMode, 3)
		return []any{pts, fit}, err
	}},
	{"E5/quality", func() (any, error) { return exp.Quality(2, 24, core.DiameterMode, 3) }},
	{"E14/spineleaf", func() (any, error) {
		return exp.SpineLeafSweep([]exp.SpineLeafConfig{{Spines: 2, Leaves: 3, Hosts: 3}}, 4, 3, 0)
	}},
}

// TestDeterminismExperimentDrivers runs each E1–E14 driver first with
// GOMAXPROCS 1, where congest.ForEach and RunBatch degrade to plain
// loops, and then with at least two procs, where the drivers that batch
// their points (E1–E5, E14) fan them out. The full reports must be
// identical.
func TestDeterminismExperimentDrivers(t *testing.T) {
	drivers := append([]driver{
		{"E3/scaling-d", func() (any, error) {
			pts, fit, err := exp.ScalingInD(24, []int{4, 6}, core.DiameterMode, 3)
			return []any{pts, fit}, err
		}},
		{"E4/crossover", func() (any, error) { return exp.Crossover(32, []int{4, 8}, 3) }},
		{"E6/figure1", func() (any, error) { return exp.Figure1Suite([]int{2, 3}, 3), nil }},
		{"E7/diameter-gap", func() (any, error) { return exp.GapExperiment(2, false, 2, 3) }},
		{"E8/table2", func() (any, error) {
			vio, checked, err := exp.Table2Experiment(2, 1, 3)
			return []int{vio, checked}, err
		}},
		{"E9/radius-gap", func() (any, error) { return exp.GapExperiment(2, true, 2, 3) }},
		{"E10/simulation", func() (any, error) { return exp.SimulationExperiment(4, 3) }},
		{"E11/reduction", func() (any, error) { return exp.ReductionExperiment(2, 1, 3) }},
		{"E12/grover", func() (any, error) {
			rng := rand.New(rand.NewSource(3))
			return qsim.BBHT(qsim.Sampled, 1<<10, func(x uint64) bool { return x == 77 }, rng), nil
		}},
		{"E13/formulas", func() (any, error) { return exp.FormulaExperiment(4) }},
	}, skeletonDrivers...)

	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	fanned := max(procs, 2)
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			ref, err := d.run()
			runtime.GOMAXPROCS(fanned)
			if err != nil {
				t.Fatalf("GOMAXPROCS=1: %v", err)
			}
			got, err := d.run()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", fanned, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("GOMAXPROCS=%d: report diverged from the GOMAXPROCS=1 run:\n got %s\nwant %s",
					fanned, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", ref))
			}
		})
	}
}

// TestDeterminismSkeletonDrivers runs each skeleton-heavy driver as
// concurrent copies that share the pooled skeleton and simulator
// buffers, as concurrent cold builds share them in the daemon.
func TestDeterminismSkeletonDrivers(t *testing.T) {
	for _, d := range skeletonDrivers {
		t.Run(d.name, func(t *testing.T) { sameInConcurrentCopies(t, d.run) })
	}
}

// kernelDeterminismGraphs is the Part D corpus, swept by Part E: a
// random graph and a barbell of the E-family plus the kernel-adversarial
// shapes — a star (the frontier jumps to n-1 in one hop), a long path
// (the frontier never grows), a high-degree fabric (the bottom-up BFS
// regime), and a disconnected graph (unreached vertices stay Inf).
func kernelDeterminismGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(73))
	disconnected := graph.New(40)
	for v := 1; v < 24; v++ {
		disconnected.MustAddEdge(rng.Intn(v), v, 1+rng.Int63n(9))
	}
	for v := 25; v < 40; v++ {
		disconnected.MustAddEdge(24+rng.Intn(v-24), v, 1+rng.Int63n(9))
	}
	return []*graph.Graph{
		graph.RandomWeights(graph.RandomConnected(48, 140, rng), 11, rng),
		graph.RandomWeights(graph.SpineLeaf(4, 6, 6, 2, 1), 7, rng),
		graph.Barbell(6, 5),
		graph.RandomWeights(graph.Star(65), 9, rng),
		graph.Path(70),
		disconnected,
	}
}

// TestDeterminismCodecParity is Part E: the cross-codec differential
// suite. Every corpus graph (the kernel-adversarial family plus
// a scrambled-insertion-order shape that forces the binary codec's
// permutation section) is round-tripped through both wire codecs, and
// the three copies — original, text-decoded, binary-decoded — must
// agree on the digest, the exact eccentricity vector, and the full
// sketch-numerator vector. Because sketches are cached by digest, any
// codec divergence here would poison answers served for the other
// encoding of the same graph.
func TestDeterminismCodecParity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	corpus := kernelDeterminismGraphs()
	scrambled := graph.New(48)
	type raw struct {
		u, v int
		w    int64
	}
	var pending []raw
	for v := 1; v < 48; v++ {
		pending = append(pending, raw{rng.Intn(v), v, 1 + rng.Int63n(50)})
	}
	rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	for _, e := range pending {
		scrambled.MustAddEdge(e.u, e.v, e.w)
	}
	corpus = append(corpus, scrambled)

	sketchNumerators := func(g *graph.Graph) []int64 {
		var s []int
		for v := 0; v < g.N(); v += 3 {
			s = append(s, v)
		}
		sk := dist.BuildSkeleton(g, s, g.N()/2, 2, dist.EpsForN(g.N()))
		eccs := make([]int64, g.N())
		for v := range eccs {
			eccs[v] = sk.ApproxEccentricity(v)
		}
		sk.Release()
		return eccs
	}

	for gi, g := range corpus {
		fromText, err := graph.ParseEdgeList(graph.FormatEdgeList(g))
		if err != nil {
			t.Fatalf("graph %d: text round trip: %v", gi, err)
		}
		fromBin, err := graph.ParseBinary(graph.FormatBinary(g))
		if err != nil {
			t.Fatalf("graph %d: binary round trip: %v", gi, err)
		}
		if fromText.Digest() != g.Digest() || fromBin.Digest() != g.Digest() {
			t.Errorf("graph %d: digest diverges across codecs (orig %x, text %x, binary %x)",
				gi, g.Digest(), fromText.Digest(), fromBin.Digest())
			continue
		}
		refEcc := g.Eccentricities()
		if !reflect.DeepEqual(fromText.Eccentricities(), refEcc) || !reflect.DeepEqual(fromBin.Eccentricities(), refEcc) {
			t.Errorf("graph %d: exact eccentricities diverge across codecs", gi)
		}
		refSketch := sketchNumerators(g)
		if !reflect.DeepEqual(sketchNumerators(fromText), refSketch) || !reflect.DeepEqual(sketchNumerators(fromBin), refSketch) {
			t.Errorf("graph %d: sketch numerators diverge across codecs", gi)
		}
	}
}

// TestDeterminismClusterReplicaParity is Part F: the determinism
// contract across a live replication cluster. One shard — a durable
// leader plus a durable and an in-memory follower, each tailing the
// leader's log over /v1/replicate — behind a digest-routing proxy. Every
// replicated graph must answer the same digest through the router, and
// cluster.Audit checks that every node answers the router's exact
// diameter and byte-identical sketch numerators.
func TestDeterminismClusterReplicaParity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster parity is not a -short test")
	}
	poll := 20 * time.Millisecond

	leader, err := svc.Open(svc.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("leader: %v", err)
	}
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	durable, err := svc.Open(svc.Config{
		DataDir: t.TempDir(), FollowURL: lts.URL, FollowPoll: poll,
	})
	if err != nil {
		t.Fatalf("durable follower: %v", err)
	}
	defer durable.Close()
	dts := httptest.NewServer(durable)
	defer dts.Close()

	inmem, err := svc.Open(svc.Config{FollowURL: lts.URL, FollowPoll: poll})
	if err != nil {
		t.Fatalf("in-memory follower: %v", err)
	}
	defer inmem.Close()
	its := httptest.NewServer(inmem)
	defer its.Close()

	topo, err := cluster.ParseTopology(lts.URL + ";" + dts.URL + ";" + its.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	rc := svc.NewClient(rts.URL)
	// Let the router's seed probe sweep mark every node ready before the
	// first write; an unprobed leader reads as down and writes shed.
	probeDeadline := time.Now().Add(5 * time.Second)
	for {
		if h, err := rc.Health(); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(probeDeadline) {
			t.Fatal("router never reported the shard ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The corpus: kernel-adversarial shapes small enough to stay cheap
	// under CI's -count=3.
	rng := rand.New(rand.NewSource(77))
	corpus := []*graph.Graph{
		graph.Star(33),
		graph.Cycle(48),
		graph.Grid(6, 7),
		graph.RandomWeights(graph.RandomConnected(56, 224, rng), 16, rng),
	}
	var digests []string
	for gi, g := range corpus {
		up, err := rc.UploadWire(g, gi%2 == 0)
		if err != nil {
			t.Fatalf("uploading corpus graph %d via router: %v", gi, err)
		}
		if up.Digest != fmt.Sprintf("%016x", g.Digest()) {
			t.Fatalf("graph %d: router acknowledged digest %s, client computed %016x", gi, up.Digest, g.Digest())
		}
		digests = append(digests, up.Digest)
	}

	// Every node — the durable leader and both followers — must answer
	// the router's diameter and sketch numerators for every graph, and
	// the shard must converge on one (seq, chain) position.
	sketches := map[string]svc.SketchRequest{}
	for gi, d := range digests {
		n := corpus[gi].N()
		sketches[d] = svc.SketchRequest{Sources: []int{0, 1 % n, (n / 2) % n}, L: n / 2, K: 2}
	}
	rep, err := cluster.Audit(rc, sketches)
	if err != nil {
		t.Fatalf("replica audit: %v (report %+v)", err, rep)
	}
	if rep.ParityChecks != 3*len(corpus) || rep.DeadSkipped != 0 || rep.ChainShardsVerified != 1 {
		t.Fatalf("replica audit %+v: want %d parity checks, none skipped, 1 chain-verified shard", rep, 3*len(corpus))
	}
}
