// Determinism regression suite for the parallel CONGEST engine and the
// parallel distance kernel: the engine contract (DESIGN.md §2.3) is
// that Stats and the ordered Trace sequence are byte-identical across
// Options.Workers values, and the skeleton-build contract (DESIGN.md
// §3.6) is that every numerator is byte-identical across
// BuildSkeletonOpts.Workers values. Part A pins the engine contract on
// every congest.Proc in the repository with raw trace logs; Part B
// re-runs the E1–E13 experiment drivers under the parallel engine (via
// congest.DefaultWorkers) and asserts their full reports are unchanged;
// Part C does the same for the distance kernel (direct skeleton builds
// and the skeleton-heavy drivers, via dist.DefaultSkeletonWorkers);
// Part D is the kernel-adversarial corpus (kernelDeterminismGraphs)
// that Part C's direct builds and Part E both sweep; Part E extends the
// contract over the wire codecs: a graph decoded from the text edge
// list and from the binary varint-delta format must be
// indistinguishable — same digest, same exact eccentricities,
// byte-identical sketch numerators — so the serving layer may accept
// either encoding of a graph and answer from either without the caller
// being able to tell; Part F extends it over the cluster: a leader and
// its WAL-shipped replicas — each configured with a different sketch
// worker count — must serve byte-identical sketch numerators and exact
// metrics for every replicated graph, both directly and through the
// digest-routing proxy, which is the invariant that makes any-replica
// reads sound. CI runs this file with -count=3 under the `determinism`
// job.
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

// workerCounts are the engine configurations the satellite task pins:
// sequential, small shard pool, and GOMAXPROCS.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
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

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			capture := func(workers int) (congest.Stats, []traceEntry, error) {
				var log []traceEntry
				opts := congest.Options{
					Workers: workers,
					Trace: func(round, from, to int, msg congest.Message) {
						log = append(log, traceEntry{round, from, to, msg})
					},
				}
				stats, err := w.run(opts)
				return stats, log, err
			}
			refStats, refLog, refErr := capture(1)
			if refErr != nil {
				t.Fatalf("sequential run failed: %v", refErr)
			}
			if len(refLog) == 0 {
				t.Fatalf("workload produced no traffic; not a useful determinism probe")
			}
			for _, workers := range workerCounts()[1:] {
				stats, log, err := capture(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if stats != refStats {
					t.Errorf("workers=%d: stats %+v != sequential %+v", workers, stats, refStats)
				}
				if !reflect.DeepEqual(log, refLog) {
					t.Errorf("workers=%d: trace log diverged (%d vs %d entries)", workers, len(log), len(refLog))
				}
			}
		})
	}
}

// TestDeterminismExperimentDrivers runs each E1–E13 driver under the
// sequential and parallel engines by flipping congest.DefaultWorkers
// (E2/E3/E5/E6–E9/E12/E13 exercise no simulator rounds — their inclusion
// pins exactly that) and asserts the full reports are identical.
func TestDeterminismExperimentDrivers(t *testing.T) {
	drivers := []struct {
		name string
		run  func() (interface{}, error)
	}{
		{"E1/table1", func() (interface{}, error) { return exp.MeasuredTable1(40, 3) }},
		{"E2/scaling-n", func() (interface{}, error) {
			pts, fit, err := exp.ScalingInN([]int{16, 24}, 4, core.DiameterMode, 3)
			return []interface{}{pts, fit}, err
		}},
		{"E3/scaling-d", func() (interface{}, error) {
			pts, fit, err := exp.ScalingInD(24, []int{4, 6}, core.DiameterMode, 3)
			return []interface{}{pts, fit}, err
		}},
		{"E4/crossover", func() (interface{}, error) { return exp.Crossover(32, []int{4, 8}, 3) }},
		{"E5/quality", func() (interface{}, error) { return exp.Quality(2, 24, core.DiameterMode, 3) }},
		{"E6/figure1", func() (interface{}, error) { return exp.Figure1Suite([]int{2, 3}, 3), nil }},
		{"E7/diameter-gap", func() (interface{}, error) { return exp.GapExperiment(2, false, 2, 3) }},
		{"E8/table2", func() (interface{}, error) {
			vio, checked, err := exp.Table2Experiment(2, 1, 3)
			return []int{vio, checked}, err
		}},
		{"E9/radius-gap", func() (interface{}, error) { return exp.GapExperiment(2, true, 2, 3) }},
		{"E10/simulation", func() (interface{}, error) { return exp.SimulationExperiment(4, 3) }},
		{"E11/reduction", func() (interface{}, error) { return exp.ReductionExperiment(2, 1, 3) }},
		{"E12/grover", func() (interface{}, error) {
			rng := rand.New(rand.NewSource(3))
			return qsim.BBHT(qsim.Sampled, 1<<10, func(x uint64) bool { return x == 77 }, rng), nil
		}},
		{"E13/formulas", func() (interface{}, error) { return exp.FormulaExperiment(4) }},
		{"E14/spineleaf", func() (interface{}, error) {
			return exp.SpineLeafSweep([]exp.SpineLeafConfig{{Spines: 2, Leaves: 3, Hosts: 3}}, 4, 3, 0, 0)
		}},
	}

	defer func() { congest.DefaultWorkers = 0 }()
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			congest.DefaultWorkers = 0
			ref, err := d.run()
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, workers := range workerCounts() {
				congest.DefaultWorkers = workers
				got, err := d.run()
				congest.DefaultWorkers = 0
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("workers=%d: report diverged from sequential run:\n got %s\nwant %s",
						workers, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", ref))
				}
			}
		})
	}
}

// TestDeterminismSkeletonWorkers pins the distance kernel's worker
// contract on the exported surface: skeleton numerators (queried as
// approximate eccentricities over every vertex, plus the TopMass
// aggregate the outer search consumes) are byte-identical for
// Workers ∈ {1, 4, GOMAXPROCS}, over the E-family shapes and the
// kernel-adversarial corpus.
func TestDeterminismSkeletonWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	graphs := []*graph.Graph{
		graph.RandomWeights(graph.RandomConnected(48, 140, rng), 11, rng),
		graph.RandomWeights(graph.SpineLeaf(3, 5, 4, 2, 1), 7, rng),
		graph.RandomWeights(graph.DiameterControlled(40, 8, rng), 16, rng),
	}
	for gi, g := range append(graphs, kernelDeterminismGraphs()...) {
		var s []int
		for v := 0; v < g.N(); v += 3 {
			s = append(s, v)
		}
		eps := dist.EpsForN(g.N())
		capture := func(workers int) ([]int64, float64) {
			sk := dist.BuildSkeletonWith(g, s, g.N()/2, 2, eps, dist.BuildSkeletonOpts{Workers: workers})
			eccs := make([]int64, g.N())
			for v := range eccs {
				eccs[v] = sk.ApproxEccentricity(v)
			}
			mass := dist.TopMass(sk, eccs[s[0]])
			sk.Release()
			return eccs, mass
		}
		refEccs, refMass := capture(1)
		for _, workers := range workerCounts()[1:] {
			eccs, mass := capture(workers)
			if !reflect.DeepEqual(eccs, refEccs) || mass != refMass {
				t.Errorf("graph %d, workers=%d: skeleton numerators diverged from sequential build", gi, workers)
			}
		}
	}
}

// TestDeterminismSkeletonDrivers re-runs the skeleton-heavy experiment
// drivers with dist.DefaultSkeletonWorkers flipped across the worker
// grid and asserts the full reports are identical: the parallel
// distance kernel must be invisible in every reported number.
func TestDeterminismSkeletonDrivers(t *testing.T) {
	drivers := []struct {
		name string
		run  func() (interface{}, error)
	}{
		{"E1/table1", func() (interface{}, error) { return exp.MeasuredTable1(40, 3) }},
		{"E2/scaling-n", func() (interface{}, error) {
			pts, fit, err := exp.ScalingInN([]int{16, 24}, 4, core.DiameterMode, 3)
			return []interface{}{pts, fit}, err
		}},
		{"E5/quality", func() (interface{}, error) { return exp.Quality(2, 24, core.DiameterMode, 3) }},
		{"E14/spineleaf", func() (interface{}, error) {
			return exp.SpineLeafSweep([]exp.SpineLeafConfig{{Spines: 2, Leaves: 3, Hosts: 3}}, 4, 3, 0, 0)
		}},
	}
	defer func() { dist.DefaultSkeletonWorkers = 0 }()
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			dist.DefaultSkeletonWorkers = 0
			ref, err := d.run()
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, workers := range workerCounts() {
				dist.DefaultSkeletonWorkers = workers
				got, err := d.run()
				dist.DefaultSkeletonWorkers = 0
				if err != nil {
					t.Fatalf("distworkers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("distworkers=%d: report diverged from sequential run", workers)
				}
			}
		})
	}
}

// kernelDeterminismGraphs is the Part D corpus, swept by Parts C and E: a
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
		sk := dist.BuildSkeletonWith(g, s, g.N()/2, 2, dist.EpsForN(g.N()), dist.BuildSkeletonOpts{})
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
// leader's log over /v1/replicate — behind a digest-routing proxy. The
// three nodes deliberately run DIFFERENT sketch worker counts (1, 4,
// GOMAXPROCS), so equality across replicas is simultaneously equality
// across the parallel kernel's fan-out. Every replicated graph must
// answer the same digest, the same exact diameter, and byte-identical
// sketch numerators from every node and through the router.
func TestDeterminismClusterReplicaParity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster parity is not a -short test")
	}
	poll := 20 * time.Millisecond
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}

	leader, err := svc.Open(svc.Config{DataDir: t.TempDir(), SketchWorkers: workers[0]})
	if err != nil {
		t.Fatalf("leader: %v", err)
	}
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	durable, err := svc.Open(svc.Config{
		DataDir: t.TempDir(), SketchWorkers: workers[1],
		FollowURL: lts.URL, FollowPoll: poll,
	})
	if err != nil {
		t.Fatalf("durable follower: %v", err)
	}
	defer durable.Close()
	dts := httptest.NewServer(durable)
	defer dts.Close()

	inmem, err := svc.Open(svc.Config{
		SketchWorkers: workers[2],
		FollowURL:     lts.URL, FollowPoll: poll,
	})
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
	nodes := map[string]*svc.Client{
		"leader":             svc.NewClient(lts.URL),
		"durable-follower":   svc.NewClient(dts.URL),
		"in-memory-follower": svc.NewClient(its.URL),
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

	// Both followers must converge on the full replicated set.
	for name, c := range nodes {
		name, c := name, c
		deadline := time.Now().Add(10 * time.Second)
		for {
			infos, err := c.Graphs()
			if err == nil && len(infos) == len(corpus) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never converged on %d graphs (last: %d, %v)", name, len(corpus), len(infos), err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	for gi, d := range digests {
		n := corpus[gi].N()
		refDia, err := nodes["leader"].Diameter(d)
		if err != nil {
			t.Fatalf("leader diameter(%s): %v", d, err)
		}
		req := svc.SketchRequest{
			Sources: []int{0, 1 % n, (n / 2) % n},
			L:       n / 2,
			K:       2,
		}
		ref, err := nodes["leader"].Sketch(d, req)
		if err != nil {
			t.Fatalf("leader sketch(%s): %v", d, err)
		}
		for name, c := range nodes {
			got, err := c.Sketch(d, req)
			if err != nil {
				t.Fatalf("%s sketch(%s): %v", name, d, err)
			}
			if got.Den != ref.Den || !reflect.DeepEqual(got.Eccentricities, ref.Eccentricities) {
				t.Errorf("graph %d: %s sketch numerators diverge from the leader's", gi, name)
			}
			dia, err := c.Diameter(d)
			if err != nil {
				t.Fatalf("%s diameter(%s): %v", name, d, err)
			}
			if dia != refDia {
				t.Errorf("graph %d: %s answers diameter %d, leader %d", gi, name, dia, refDia)
			}
		}
		via, err := rc.Sketch(d, req)
		if err != nil {
			t.Fatalf("router sketch(%s): %v", d, err)
		}
		if via.Den != ref.Den || !reflect.DeepEqual(via.Eccentricities, ref.Eccentricities) {
			t.Errorf("graph %d: the router's answer diverges from the leader's", gi)
		}
	}
}
