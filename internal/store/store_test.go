package store

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qcongest/internal/graph"
)

// testGraphs builds a deterministic family of distinct workload graphs.
func testGraphs(t *testing.T, n int) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	gs := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			gs = append(gs, graph.Path(3+i))
		case 1:
			gs = append(gs, graph.RandomWeights(graph.Cycle(4+i), 9, rng))
		case 2:
			gs = append(gs, graph.SpineLeaf(2, 2+i%3, 1+i%4, 3, 1))
		default:
			gs = append(gs, graph.RandomWeights(graph.LowDiameterExpanderish(16+i, 3, rng), 50, rng))
		}
	}
	return gs
}

func mustOpen(t *testing.T, opts Options) (*Store, []RecoveredGraph, RecoveryStats) {
	t.Helper()
	s, recovered, stats, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return s, recovered, stats
}

// assertRecovered checks that the recovered set is exactly want, in
// order, with byte-identical wire forms (hence byte-identical digests).
func assertRecovered(t *testing.T, recovered []RecoveredGraph, want []*graph.Graph) {
	t.Helper()
	if len(recovered) != len(want) {
		t.Fatalf("recovered %d graphs, want %d", len(recovered), len(want))
	}
	for i, rg := range recovered {
		if rg.Digest != want[i].Digest() {
			t.Fatalf("graph %d: digest %016x != %016x", i, rg.Digest, want[i].Digest())
		}
		if got, exp := graph.FormatEdgeList(rg.Graph), graph.FormatEdgeList(want[i]); string(got) != string(exp) {
			t.Fatalf("graph %d: wire form changed across recovery", i)
		}
	}
}

// TestStoreRoundTrip commits graphs (with and without generator specs),
// records touches, closes cleanly, and asserts a reopen recovers
// everything byte-identically with the warm-start hints intact.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 6)
	gen := json.RawMessage(`{"kind":"path","n":9}`)

	s, recovered, _ := mustOpen(t, Options{Dir: dir})
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d graphs", len(recovered))
	}
	for i, g := range gs {
		var meta json.RawMessage
		if i == 2 {
			meta = gen
		}
		if err := s.AppendGraph(g, meta); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Touch graph 4 with a sketch tuple and graph 1 with a plain read.
	sk := &SketchParams{Sources: []int{0, 1}, L: 4, K: 2}
	s.Touch(gs[4].Digest(), sk)
	s.Touch(gs[1].Digest(), nil)
	if st := s.Stats(); st.Graphs != len(gs) || st.Appends != int64(len(gs)) || st.Touches != 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, recovered, stats := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	assertRecovered(t, recovered, gs)
	if stats.SnapshotGraphs != len(gs) || stats.LogGraphs != 0 {
		t.Fatalf("expected all graphs from the close-time snapshot, got %+v", stats)
	}
	if string(recovered[2].Gen) != string(gen) {
		t.Fatalf("gen spec not preserved: %q", recovered[2].Gen)
	}
	if recovered[4].Sketch == nil || recovered[4].Sketch.L != 4 || len(recovered[4].Sketch.Sources) != 2 {
		t.Fatalf("sketch hint not preserved: %+v", recovered[4].Sketch)
	}
	if !(recovered[1].LastQuery > 0 && recovered[4].LastQuery > 0 && recovered[1].LastQuery > recovered[4].LastQuery) {
		t.Fatalf("recency order lost: graph1=%d graph4=%d", recovered[1].LastQuery, recovered[4].LastQuery)
	}
	if recovered[0].LastQuery != 0 {
		t.Fatalf("untouched graph has lastQuery %d", recovered[0].LastQuery)
	}
}

// TestStoreRecoversFromLogWithoutClose kills the store (no snapshot, no
// buffered flush) and asserts every fsynced graph append replays from
// the log alone.
func TestStoreRecoversFromLogWithoutClose(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 5)
	s, _, _ := mustOpen(t, Options{Dir: dir})
	for _, g := range gs {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	s2, recovered, stats := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	assertRecovered(t, recovered, gs)
	if stats.LogGraphs != len(gs) || stats.SnapshotGraphs != 0 {
		t.Fatalf("expected pure log replay, got %+v", stats)
	}
	if stats.TornTail {
		t.Fatalf("clean log reported torn: %+v", stats)
	}
}

// TestStoreSnapshotRotation drives automatic snapshots and asserts the
// log is rotated and pruned while recovery still sees everything, and
// that appended-after-snapshot graphs replay from the log on top of the
// snapshot.
func TestStoreSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 7)
	s, _, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: 2})
	for _, g := range gs {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Snapshots != 3 || st.SnapshotBytes == 0 {
		t.Fatalf("expected 3 automatic snapshots, got %+v", st)
	}
	s.Crash() // skip the close-time snapshot: the 7th graph must replay from the log

	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal-*.qcl"))
	if len(walFiles) != 1 {
		t.Fatalf("expected 1 rotated log, found %v", walFiles)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.qcs"))
	if len(snaps) != 1 {
		t.Fatalf("expected 1 snapshot, found %v", snaps)
	}

	s2, recovered, stats := mustOpen(t, Options{Dir: dir, SnapshotEvery: 2})
	defer s2.Close()
	assertRecovered(t, recovered, gs)
	if stats.SnapshotGraphs != 6 || stats.LogGraphs != 1 {
		t.Fatalf("expected 6 snapshot + 1 log graphs, got %+v", stats)
	}
}

// TestStoreAppendIdempotent re-appends a committed digest and expects a
// single resident copy.
func TestStoreAppendIdempotent(t *testing.T) {
	dir := t.TempDir()
	g := graph.Path(9)
	s, _, _ := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Graphs != 1 || st.Appends != 1 {
		t.Fatalf("idempotence broken: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recovered, _ := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	assertRecovered(t, recovered, []*graph.Graph{g})
}

// TestStoreDoubleBootLock asserts the second opener of a data dir fails
// with a clean lock error while the first holds it, and succeeds once
// released.
func TestStoreDoubleBootLock(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := mustOpen(t, Options{Dir: dir})
	_, _, _, err := Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("double boot error = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, _ := mustOpen(t, Options{Dir: dir})
	s2.Close()
}

// TestStoreDirErrors covers the startup error surface: a data dir path
// that is a regular file, and a read-only directory, both yield clean
// errors (never panics).
func TestStoreDirErrors(t *testing.T) {
	t.Run("path is a file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "not-a-dir")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Open(Options{Dir: path}); err == nil {
			t.Fatal("expected error opening a file as data dir")
		}
	})
	t.Run("read-only dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(dir, 0o500); err != nil {
			t.Fatal(err)
		}
		// Root (CI containers) ignores mode bits; only assert when the
		// kernel actually enforces them.
		if probe := os.WriteFile(filepath.Join(dir, "probe"), nil, 0o644); probe == nil {
			t.Skip("running with CAP_DAC_OVERRIDE; read-only dir not enforceable")
		}
		_, _, _, err := Open(Options{Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "not writable") {
			t.Fatalf("read-only dir error = %v", err)
		}
	})
	t.Run("missing dir option", func(t *testing.T) {
		if _, _, _, err := Open(Options{}); err == nil {
			t.Fatal("expected error for empty Dir")
		}
	})
}

// TestStoreQuarantineCorruptRecord flips a byte inside the first
// record's payload: the CRC catches it, the scan reports a tear at that
// offset, and recovery truncates — nothing corrupt is ever served.
func TestStoreQuarantineCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 3)
	s, _, _ := mustOpen(t, Options{Dir: dir})
	for _, g := range gs {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	// Corrupt a byte in the middle of the first record's payload: the
	// CRC fails, so the scan reports a tear at record 1 and recovery
	// truncates — committed graphs beyond the corruption are casualties
	// of the tear, but nothing corrupt is ever served.
	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal-*.qcl"))
	if len(walFiles) != 1 {
		t.Fatalf("want 1 log, got %v", walFiles)
	}
	raw, err := os.ReadFile(walFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0xff
	if err := os.WriteFile(walFiles[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recovered, stats := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if len(recovered) != 0 || !stats.TornTail {
		t.Fatalf("corrupted-first-record recovery: %d graphs, stats %+v", len(recovered), stats)
	}
}

// TestStoreQuarantineBadSnapshotGraph rewrites one snapshot record so
// its stored digest disagrees with its edges, and asserts recovery
// quarantines exactly that graph and keeps the rest.
func TestStoreQuarantineBadSnapshotGraph(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 3)
	s, _, _ := mustOpen(t, Options{Dir: dir})
	for _, g := range gs {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // snapshot now holds all three
		t.Fatal(err)
	}

	// Rebuild the snapshot with record 1 carrying a wrong digest but a
	// valid frame (CRC recomputed), simulating silent payload rot that
	// framing cannot catch — only digest verification can.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.qcs"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %v", snaps)
	}
	var body []byte
	for i, g := range gs {
		digest := g.Digest()
		if i == 1 {
			digest ^= 1 // stored digest no longer matches the edges
		}
		payload, err := encodeGraphPayload(digest, nil, g)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if _, err := appendRecord(&buf, uint64(i), recGraph, payload); err != nil {
			t.Fatal(err)
		}
		body = append(body, buf.String()...)
	}
	if err := os.WriteFile(snaps[0], body, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recovered, stats := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	assertRecovered(t, recovered, []*graph.Graph{gs[0], gs[2]})
	if stats.Quarantined == 0 || stats.MissingGraphs != 1 {
		t.Fatalf("expected a quarantined record and one missing graph, got %+v", stats)
	}
	qfiles, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(qfiles) == 0 {
		t.Fatal("quarantine dir is empty")
	}
}

// TestStoreTouchThrottle asserts heavy read traffic logs only a
// throttled fraction of touch records while in-memory recency still
// advances.
func TestStoreTouchThrottle(t *testing.T) {
	dir := t.TempDir()
	g := graph.Path(5)
	s, _, _ := mustOpen(t, Options{Dir: dir, TouchLogEvery: 100})
	if err := s.AppendGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().WALBytes
	for i := 0; i < 250; i++ {
		s.Touch(g.Digest(), nil)
	}
	grew := s.Stats().WALBytes - before
	// 250 touches at TouchLogEvery=100 log ~3 records, far below the
	// ~250 an unthrottled store would write.
	if st := s.Stats(); st.Touches != 250 {
		t.Fatalf("touches %d", st.Touches)
	}
	if grew > 1024 {
		t.Fatalf("touch throttle ineffective: log grew %d bytes", grew)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recovered, _ := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if recovered[0].LastQuery == 0 {
		t.Fatal("recency lost despite throttle")
	}
}

// TestStoreSeqCorruptionDetected flips the sequence number in a
// committed record's header to one the snapshot already covers. The
// checksum spans the header fields, so the rewrite must surface as a
// detected tear — never as a silent "already folded" skip that loses
// an acknowledged graph with clean recovery stats.
func TestStoreSeqCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 3)
	s, _, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	for _, g := range gs[:2] {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil { // snapshotSeq = 2, log rotated
		t.Fatal(err)
	}
	if err := s.AppendGraph(gs[2], nil); err != nil { // seq 3, log only
		t.Fatal(err)
	}
	s.Crash()

	wal := activeWAL(t, dir)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// "rec 3 graph ..." -> "rec 1 graph ...": a seq the snapshot covers.
	munged := strings.Replace(string(raw), "rec 3 ", "rec 1 ", 1)
	if munged == string(raw) {
		t.Fatalf("expected a seq-3 record in %s", wal)
	}
	if err := os.WriteFile(wal, []byte(munged), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recovered, stats := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	defer s2.Close()
	assertRecovered(t, recovered, gs[:2])
	if !stats.TornTail {
		t.Fatalf("seq corruption went undetected: %+v", stats)
	}
}

// TestStoreConcurrentAppendTouchSnapshot hammers the off-mutex fsync
// pipeline: concurrent appenders (including duplicate digests racing
// each other), touchers, and explicit folds, all under -race. Every
// append that returned nil must be recovered after a crash.
func TestStoreConcurrentAppendTouchSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: 8, TouchLogEvery: 4})
	var gs []*graph.Graph
	seen := make(map[uint64]bool)
	for _, g := range testGraphs(t, 24) { // the generator family repeats some shapes
		if !seen[g.Digest()] {
			seen[g.Digest()] = true
			gs = append(gs, g)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, g := range gs {
				// Workers race duplicate appends of every graph.
				if err := s.AppendGraph(g, nil); err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				s.Touch(g.Digest(), &SketchParams{Sources: []int{0}, L: 2, K: 1})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
			}
		}
	}()
	wg.Wait()
	if st := s.Stats(); st.Graphs != len(gs) || st.Appends != int64(len(gs)) {
		t.Fatalf("stats after hammer: %+v", st)
	}
	s.Crash()

	s2, recovered, stats := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if len(recovered) != len(gs) || stats.Quarantined != 0 || stats.TornTail {
		t.Fatalf("hammered store recovered %d/%d graphs, stats %+v", len(recovered), len(gs), stats)
	}
	want := make(map[uint64]bool, len(gs))
	for _, g := range gs {
		want[g.Digest()] = true
	}
	for _, rg := range recovered {
		if !want[rg.Digest] {
			t.Fatalf("recovered unknown digest %016x", rg.Digest)
		}
		delete(want, rg.Digest)
	}
	if len(want) != 0 {
		t.Fatalf("acknowledged graphs missing after recovery: %v", want)
	}
}

// TestStoreReplayParseLimits asserts the recovery parse honors the
// configured graph bounds: a record committed without limits is
// quarantined, not ballooned, when reopened with tighter ones.
func TestStoreReplayParseLimits(t *testing.T) {
	dir := t.TempDir()
	big := graph.Path(100)
	small := graph.Path(5)
	s, _, _ := mustOpen(t, Options{Dir: dir})
	if err := s.AppendGraph(big, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendGraph(small, nil); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, recovered, stats := mustOpen(t, Options{Dir: dir, MaxNodes: 10})
	defer s2.Close()
	assertRecovered(t, recovered, []*graph.Graph{small})
	if stats.Quarantined != 1 {
		t.Fatalf("expected the oversized record quarantined, got %+v", stats)
	}
}
