// Package store is the durable graph store behind qcongestd's
// -data-dir flag: a crash-safe on-disk registry of immutable graphs
// that survives process restarts, so a reboot serves every previously
// committed graph — byte-identical digests, and therefore (by the
// API.md determinism contract) byte-identical sketch numerators.
//
// Layout of one data dir:
//
//	LOCK                  flock'd double-boot guard
//	manifest.json         root document: versions, blessed snapshot,
//	                      snapshot sequence, warm-start hints
//	snapshot-<seq>.qcs    framed graph records, registration order
//	wal-<seq>.qcl         append-only log (name = first sequence number
//	                      it may contain)
//	quarantine/           records that failed replay verification
//
// Durability model (DESIGN.md §9): a graph append is committed once its
// framed record (wal.go) is written and fsynced to the active log —
// AppendGraph does not return success before that point. Periodically
// (and at Close) the store folds the log into a snapshot: snapshot file
// and manifest are each published via temp + fsync + atomic rename,
// then the log is rotated and superseded files are deleted. Every
// intermediate crash point recovers: an orphaned snapshot is garbage-
// collected, a not-yet-rotated log replays records the manifest already
// covers as no-ops (sequence numbers at or below SnapshotSeq are
// skipped), and a torn log tail is detected by record checksums and
// truncated. Recovered graphs are digest-verified against their own
// stored metadata; mismatches are quarantined, never served and never
// fatal.
//
// Touch records are the one deliberately lossy artifact: they persist
// query recency and the last sketch parameter tuple (the warm-restart
// hints) through the write buffer without fsync, so heavy read traffic
// does not turn into synchronous log I/O. Losing the tail of them in a
// crash costs warmth, not correctness.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"qcongest/internal/graph"
)

const (
	lockFileName   = "LOCK"
	manifestName   = "manifest.json"
	quarantineName = "quarantine"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configure Open.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// SnapshotEvery is the number of graph appends between automatic
	// snapshots (default 64; negative disables automatic snapshots —
	// Close still snapshots).
	SnapshotEvery int
	// TouchLogEvery throttles touch records: a graph's recency is
	// logged at most once per this many sequence steps (default 64; the
	// in-memory state always updates, and a changed sketch tuple is
	// always logged).
	TouchLogEvery uint64
	// MaxNodes and MaxEdges bound one recovered graph's parse, checked
	// before allocation (0 = unbounded). Pass the serving limits so a
	// corrupt record cannot balloon recovery memory.
	MaxNodes, MaxEdges int
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 64
	}
	if o.TouchLogEvery == 0 {
		o.TouchLogEvery = 64
	}
	return o
}

// graphRec is one resident graph with its persistence metadata.
type graphRec struct {
	g          *graph.Graph
	digest     uint64
	gen        json.RawMessage
	seq        uint64 // append sequence the graph committed at
	lastQuery  uint64 // sequence clock of the most recent query
	lastLogged uint64 // sequence of the last logged touch record
	sketch     *SketchParams
}

// RecoveredGraph is one graph handed back by Open, with its warm-start
// hints.
type RecoveredGraph struct {
	// Graph is the recovered, digest-verified graph.
	Graph *graph.Graph
	// Digest is Graph.Digest(), verified against the stored metadata.
	Digest uint64
	// Gen is the generator spec the graph was created from (nil for raw
	// uploads); opaque JSON owned by the caller's schema.
	Gen json.RawMessage
	// LastQuery is the store's logical clock at the graph's most recent
	// recorded query (0 = never queried); higher means more recent.
	LastQuery uint64
	// Sketch is the most recent sketch parameter tuple recorded for the
	// graph, shape-validated against it (nil when none).
	Sketch *SketchParams
}

// RecoveryStats describes what one Open recovered.
type RecoveryStats struct {
	// SnapshotGraphs counts graphs recovered from the snapshot.
	SnapshotGraphs int
	// LogGraphs counts graphs replayed from the log.
	LogGraphs int
	// Quarantined counts records (or files) that failed verification
	// and were moved aside instead of served or crashed on.
	Quarantined int
	// MissingGraphs counts manifest-declared graphs with no surviving
	// snapshot record.
	MissingGraphs int
	// TornTail reports that a log ended in a torn or corrupt write.
	TornTail bool
	// TornTailBytes is the total size of truncated/quarantined tails.
	TornTailBytes int64
	// Replay is the wall-clock duration of recovery.
	Replay time.Duration
	// LastSeq is the store's sequence clock after recovery.
	LastSeq uint64
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Graphs is the resident graph count.
	Graphs int
	// Appends counts committed graph appends this process.
	Appends int64
	// Touches counts recorded queries this process (logged or not).
	Touches int64
	// Snapshots counts snapshots taken this process.
	Snapshots int64
	// WALBytes is the active log's size.
	WALBytes int64
	// SnapshotBytes is the latest snapshot's size.
	SnapshotBytes int64
	// LastSeq is the sequence clock.
	LastSeq uint64
	// LastSnapshotError is the most recent automatic-snapshot failure
	// ("" when healthy); appends keep committing to the log regardless.
	LastSnapshotError string
}

// Store is a durable graph store. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options
	lock *os.File

	// snapMu serializes whole snapshot folds end to end; mu is held
	// only to stage and commit a fold, never across its file I/O, so
	// appends and touches keep flowing while a snapshot publishes.
	snapMu sync.Mutex

	mu          sync.Mutex
	closed      bool
	failed      error // sticky log-write failure; refuses further writes
	seq         uint64
	snapshotSeq uint64
	hasManifest bool
	wal         *os.File
	walBuf      *bufio.Writer
	walPath     string
	walBytes    int64
	graphs      []*graphRec
	byDigest    map[uint64]*graphRec

	// Append fsyncs run outside mu so touches and reads flow during
	// them. pendingSyncs counts appends between buffer write and
	// registration; rotating blocks new appends while a fold drains
	// them and swaps the log file; syncCond (on mu) signals both.
	// inFlight maps a digest whose record is written but not yet
	// fsynced to a channel closed at settlement, so a concurrent
	// duplicate append cannot return before the graph is durable.
	syncCond     *sync.Cond
	pendingSyncs int
	rotating     bool
	inFlight     map[uint64]chan struct{}

	// headSeq is the highest committed graph sequence (touch records
	// consume sequence numbers too but are unsynced and excluded from
	// replication, so the replication head tracks graphs only).
	// replNotify is closed and replaced whenever headSeq advances, so
	// /v1/replicate long-polls wake without polling.
	headSeq    uint64
	replNotify chan struct{}

	// epoch is the persisted leadership generation (epoch.go); chain is
	// the running digest chain over committed graph records in
	// ascending-seq order. epochDirty forces the next fold to run even
	// when no graph or hint changed, so SetEpoch's persistence
	// guarantee holds.
	epoch      uint64
	chain      uint64
	epochDirty bool

	appendsSinceSnap int
	hintsDirty       bool // any touch (logged or not) since the last fold
	quarantined      int
	appends          int64
	touches          int64
	snapshots        int64
	snapshotBytes    int64
	lastSnapErr      string
}

// Open locks dir, replays manifest + snapshot + log into memory, and
// returns the store with every recovered graph (registration order) and
// the recovery accounting. Double boots, unwritable directories, and
// paths that are not directories fail with clean errors; corrupt or
// torn persisted state is quarantined or truncated, never fatal.
func Open(opts Options) (*Store, []RecoveredGraph, RecoveryStats, error) {
	var stats RecoveryStats
	if opts.Dir == "" {
		return nil, nil, stats, errors.New("store: Options.Dir is required")
	}
	opts = opts.withDefaults()
	start := time.Now()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("store: creating data dir: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, nil, stats, err
	}
	s := &Store{
		dir:        opts.Dir,
		opts:       opts,
		lock:       lock,
		byDigest:   make(map[uint64]*graphRec),
		inFlight:   make(map[uint64]chan struct{}),
		replNotify: make(chan struct{}),
	}
	s.syncCond = sync.NewCond(&s.mu)
	fail := func(err error) (*Store, []RecoveredGraph, RecoveryStats, error) {
		lock.Close()
		return nil, nil, stats, err
	}

	man, err := s.loadManifest(&stats)
	if err != nil {
		return fail(err)
	}
	if man != nil {
		s.loadSnapshot(man, &stats)
		s.seq = man.SnapshotSeq
		s.snapshotSeq = man.SnapshotSeq
		s.epoch = man.Epoch
		s.hasManifest = true
	}
	if err := s.replayLogs(&stats); err != nil {
		return fail(err)
	}
	// Recovery registers near-sorted (snapshot order, then log replay);
	// the chain is defined over strict ascending sequence, so rebuild it
	// once from the settled resident set.
	s.recomputeChain()
	s.removeOrphans(man)
	if err := s.openActiveLog(); err != nil {
		return fail(err)
	}

	recovered := make([]RecoveredGraph, len(s.graphs))
	for i, r := range s.graphs {
		recovered[i] = RecoveredGraph{
			Graph:     r.g,
			Digest:    r.digest,
			Gen:       r.gen,
			LastQuery: r.lastQuery,
			Sketch:    r.sketch.clone(),
		}
	}
	stats.Replay = time.Since(start)
	stats.LastSeq = s.seq
	return s, recovered, stats, nil
}

// loadManifest reads and validates manifest.json. Only a missing file
// means "no manifest"; any other read failure aborts Open — a manifest
// that exists but cannot be read must never be mistaken for an absent
// one, because booting without it would re-bless a manifest covering
// only the log's graphs and let the next fold prune the old snapshot,
// silently destroying everything it held. Unparseable *content* is
// different: the bytes are in hand, so they are quarantined and
// recovery proceeds (with the blessed snapshot file left untouched on
// disk for the operator).
func (s *Store) loadManifest(stats *RecoveryStats) (*manifest, error) {
	path := filepath.Join(s.dir, manifestName)
	// Bound the read before allocating: a replaced multi-gigabyte
	// manifest must be moved aside (a rename, no read), not slurped.
	if info, err := os.Stat(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	} else if info.Size() > maxManifestBytes {
		s.quarantined++
		qdir := filepath.Join(s.dir, quarantineName)
		if os.MkdirAll(qdir, 0o755) == nil {
			_ = os.Rename(path, filepath.Join(qdir, fmt.Sprintf("%03d-manifest-oversize", s.quarantined)))
		}
		stats.Quarantined++
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	man, perr := parseManifest(raw)
	if perr != nil {
		s.quarantine("manifest", raw, perr)
		stats.Quarantined++
		return nil, nil
	}
	return man, nil
}

// loadSnapshot registers the snapshot's digest-verified graphs that the
// manifest blesses, attaching the manifest's warm-start hints.
func (s *Store) loadSnapshot(man *manifest, stats *RecoveryStats) {
	if man.Snapshot == "" {
		return
	}
	blessed := make(map[uint64]*manifestGraph, len(man.Graphs))
	for i := range man.Graphs {
		mg := &man.Graphs[i]
		if d, err := parseDigest(mg.Digest); err == nil { // validated by parseManifest
			blessed[d] = mg
		}
	}
	recs, failures := readSnapshot(filepath.Join(s.dir, man.Snapshot), s.opts.MaxNodes, s.opts.MaxEdges)
	for _, f := range failures {
		s.quarantine(f.name, f.raw, f.err)
		stats.Quarantined++
	}
	ordinal := uint64(0)
	for _, r := range recs {
		mg, ok := blessed[r.digest]
		if !ok {
			s.quarantine("snapshot-unblessed-"+formatDigest(r.digest), nil,
				fmt.Errorf("store: snapshot graph %s is not in the manifest", formatDigest(r.digest)))
			stats.Quarantined++
			continue
		}
		if _, dup := s.byDigest[r.digest]; dup {
			continue
		}
		ordinal++
		if mg.Seq != 0 {
			// The manifest's blessing carries the original append
			// sequence, which is the replication cursor identity.
			r.seq = mg.Seq
		} else if r.seq == 0 {
			// Pre-PR 9 manifest: original sequences are gone. Synthesize
			// ascending ordinals — each append consumed a sequence step,
			// so ordinal <= SnapshotSeq and a fresh replica (cursor 0)
			// still receives every graph; the first fold under this build
			// re-blesses the synthetic values as real ones.
			r.seq = ordinal
		}
		r.lastQuery = mg.LastQuery
		if validateSketchShape(mg.Sketch, r.g.N()) == nil {
			r.sketch = mg.Sketch.clone()
		}
		s.register(r)
		stats.SnapshotGraphs++
	}
	for d := range blessed {
		if _, ok := s.byDigest[d]; !ok {
			stats.MissingGraphs++
		}
	}
}

// replayLogs scans every log file in sequence order, applying records
// newer than the snapshot. A torn tail on the active (last) log is
// truncated so appends resume at a clean boundary; a tear in an older
// log quarantines the unreadable remainder and replay continues with
// the next file.
func (s *Store) replayLogs(stats *RecoveryStats) error {
	files, err := s.walFiles()
	if err != nil {
		return err
	}
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: opening log %s: %w", path, err)
		}
		res, scanErr := scanRecords(f, func(seq uint64, kind string, payload []byte) error {
			if seq > s.seq {
				s.seq = seq
			}
			if seq <= s.snapshotSeq {
				return nil // already folded into the snapshot
			}
			s.applyRecord(seq, kind, payload, stats)
			return nil
		})
		f.Close()
		if scanErr != nil {
			return scanErr
		}
		if !res.torn {
			continue
		}
		stats.TornTail = true
		if info, err := os.Stat(path); err == nil {
			stats.TornTailBytes += info.Size() - res.good
		}
		if i < len(files)-1 {
			// A tear in a non-active log is corruption, not a crash
			// artifact; keep a copy before repairing it.
			s.quarantineFileTail(path, res.good, res.tornErr)
			stats.Quarantined++
		}
		// Repair in place so the tear is handled exactly once — the
		// active log must append after a clean boundary, and an older
		// log must not re-quarantine the same tail on every boot.
		if err := os.Truncate(path, res.good); err != nil {
			return fmt.Errorf("store: truncating torn log tail of %s: %w", path, err)
		}
	}
	return nil
}

// applyRecord replays one committed log record; verification failures
// quarantine the record and continue.
func (s *Store) applyRecord(seq uint64, kind string, payload []byte, stats *RecoveryStats) {
	name := fmt.Sprintf("log-rec-%d", seq)
	switch kind {
	case recGraph:
		digest, gen, g, err := decodeGraphPayload(payload, s.opts.MaxNodes, s.opts.MaxEdges)
		if err != nil {
			s.quarantine(name, payload, err)
			stats.Quarantined++
			return
		}
		if _, dup := s.byDigest[digest]; dup {
			return
		}
		s.register(&graphRec{g: g, digest: digest, gen: gen, seq: seq})
		stats.LogGraphs++
	case recTouch:
		digest, sk, err := decodeTouchPayload(payload)
		if err != nil {
			s.quarantine(name, payload, err)
			stats.Quarantined++
			return
		}
		r, ok := s.byDigest[digest]
		if !ok {
			return // recency hint for a graph that no longer exists
		}
		r.lastQuery = seq
		if sk != nil && validateSketchShape(sk, r.g.N()) == nil {
			r.sketch = sk.clone()
		}
	}
}

// register adds a committed graph to the resident set and advances the
// replication head, waking any /v1/replicate long-polls. Called with mu
// held.
func (s *Store) register(r *graphRec) {
	s.graphs = append(s.graphs, r)
	s.byDigest[r.digest] = r
	if r.seq > s.headSeq {
		s.chain = chainMix(s.chain, r.seq, r.digest)
		s.headSeq = r.seq
		close(s.replNotify)
		s.replNotify = make(chan struct{})
	} else {
		// Out-of-order registration (only recovery replay can do this):
		// the incremental fold would misorder, so rebuild from sorted.
		s.recomputeChain()
	}
}

// removeOrphans garbage-collects snapshot files a crash left
// unpublished (present on disk but not blessed by the manifest). With
// no readable manifest nothing can be told apart from a blessed
// snapshot, so nothing is deleted: a quarantined-manifest boot must
// never destroy the one file an operator could still recover graphs
// from. Leftovers are pruned by the next successful snapshot.
func (s *Store) removeOrphans(man *manifest) {
	if man == nil {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".qcs") {
			continue
		}
		if name == man.Snapshot {
			continue
		}
		os.Remove(filepath.Join(s.dir, name))
	}
}

// walFiles lists the log files in sequence order.
func (s *Store) walFiles() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading data dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".qcl") {
			names = append(names, name)
		}
	}
	sort.Strings(names) // zero-padded hex sorts by sequence
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(s.dir, n)
	}
	return paths, nil
}

func (s *Store) walPathFor(firstSeq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016x.qcl", firstSeq))
}

// openActiveLog appends to the newest log (post-truncation) or creates
// the first one.
func (s *Store) openActiveLog() error {
	files, err := s.walFiles()
	if err != nil {
		return err
	}
	path := s.walPathFor(s.seq + 1)
	if len(files) > 0 {
		path = files[len(files)-1]
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening log %s: %w", path, err)
	}
	if len(files) == 0 {
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return err
		}
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: sizing log %s: %w", path, err)
	}
	s.wal, s.walBuf, s.walPath, s.walBytes = f, bufio.NewWriterSize(f, 1<<16), path, info.Size()
	return nil
}

// AppendGraph durably commits g (idempotent on digest): when it returns
// nil, the graph's record is on disk and fsynced, and a crash at any
// later byte boundary recovers it. gen, when non-nil, is the opaque
// generator spec persisted alongside (replayed back via
// RecoveredGraph.Gen).
func (s *Store) AppendGraph(g *graph.Graph, gen json.RawMessage) error {
	digest := g.Digest()
	payload, err := encodeGraphPayload(digest, gen, g)
	if err != nil {
		return err
	}

	// Phase 1 (under mu, cheap): reserve a sequence number and write
	// the framed record into the log buffer.
	s.mu.Lock()
	for {
		switch {
		case s.closed:
			s.mu.Unlock()
			return ErrClosed
		case s.failed != nil:
			err := fmt.Errorf("store: log writes disabled after earlier failure: %w", s.failed)
			s.mu.Unlock()
			return err
		}
		if _, ok := s.byDigest[digest]; ok {
			s.mu.Unlock()
			return nil
		}
		if ch, ok := s.inFlight[digest]; ok {
			// A concurrent append of this digest is mid-fsync. Wait for
			// it to settle, then re-evaluate: AppendGraph must not
			// return before the graph is durable.
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			continue
		}
		if s.rotating {
			// A fold is swapping the log file; park until it finishes
			// so this record lands in the file its sequence belongs to.
			s.syncCond.Wait()
			continue
		}
		break
	}
	s.seq++
	seq := s.seq
	n, err := appendRecord(s.walBuf, seq, recGraph, payload)
	if err == nil {
		err = s.walBuf.Flush()
	}
	if err != nil {
		// The log tail is now indeterminate; refuse further writes so a
		// later append cannot land after a torn record and be lost to
		// recovery's tail truncation.
		s.failed = fmt.Errorf("store: appending graph %s: %w", formatDigest(digest), err)
		s.mu.Unlock()
		return s.failed
	}
	s.walBytes += n
	ch := make(chan struct{})
	s.inFlight[digest] = ch
	s.pendingSyncs++
	wal := s.wal
	s.mu.Unlock()

	// Phase 2 (no mu): the fsync — the slow part. Touches and reads
	// flow freely while it runs; rotation is held off by pendingSyncs.
	syncErr := wal.Sync()

	// Phase 3 (under mu): settle — register on success, poison on
	// failure — and release duplicate waiters and any waiting fold.
	s.mu.Lock()
	s.pendingSyncs--
	delete(s.inFlight, digest)
	needSnap := false
	if syncErr != nil {
		s.failed = fmt.Errorf("store: appending graph %s: %w", formatDigest(digest), syncErr)
	} else {
		s.register(&graphRec{g: g, digest: digest, gen: append(json.RawMessage(nil), gen...), seq: seq})
		s.appends++
		s.appendsSinceSnap++
		needSnap = s.opts.SnapshotEvery > 0 && s.appendsSinceSnap >= s.opts.SnapshotEvery
	}
	failed := s.failed
	s.syncCond.Broadcast()
	s.mu.Unlock()
	close(ch)

	if syncErr != nil {
		return failed
	}
	if needSnap {
		// The fold runs outside the store mutex (Snapshot holds it only
		// to stage and commit), so this append pays some snapshot
		// latency but concurrent reads and appends keep flowing. The
		// append itself is already durable in the log; a snapshot
		// failure surfaces through Stats instead of failing the put.
		if err := s.Snapshot(); err != nil {
			s.mu.Lock()
			s.lastSnapErr = err.Error()
			s.mu.Unlock()
		}
	}
	return nil
}

// Touch records a query against digest for warm-restart ranking, with
// the sketch parameter tuple when the query was a sketch. Touches are
// best-effort: in-memory recency always updates, and a throttled
// fraction is appended to the log without fsync.
func (s *Store) Touch(digest uint64, sk *SketchParams) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.failed != nil {
		return
	}
	r, ok := s.byDigest[digest]
	if !ok {
		return
	}
	s.seq++
	s.touches++
	s.hintsDirty = true
	r.lastQuery = s.seq
	sketchChanged := false
	if sk != nil && validateSketchShape(sk, r.g.N()) == nil && !sketchEqual(sk, r.sketch) {
		r.sketch = sk.clone()
		sketchChanged = true
	}
	if !sketchChanged && r.lastLogged != 0 && s.seq-r.lastLogged < s.opts.TouchLogEvery {
		return
	}
	payload, err := encodeTouchPayload(digest, r.sketch)
	if err != nil {
		return
	}
	n, err := appendRecord(s.walBuf, s.seq, recTouch, payload)
	if err != nil {
		s.failed = fmt.Errorf("store: appending touch: %w", err)
		return
	}
	s.walBytes += n
	r.lastLogged = s.seq
}

func sketchEqual(a, b *SketchParams) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.L != b.L || a.K != b.K || a.EpsT != b.EpsT || len(a.Sources) != len(b.Sources) {
		return false
	}
	for i, v := range a.Sources {
		if v != b.Sources[i] {
			return false
		}
	}
	return true
}

// snapJob is one staged fold: everything publish needs without the
// store mutex. recs is a copy of the graph list whose publish-time
// reads touch only immutable fields (g, digest, gen); the mutable
// warm-start hints are value-copied into manGraphs at stage time.
type snapJob struct {
	seq           uint64
	epoch         uint64
	name          string
	recs          []*graphRec
	manGraphs     []manifestGraph
	stagedAppends int
	bodyBytes     int64
}

// Snapshot folds the log into a freshly published snapshot + manifest
// and rotates the log. Safe to call at any time; a no-op when nothing
// changed since the last fold. Folds are serialized with each other,
// but the store mutex is held only to stage and to commit — appends,
// touches, and reads proceed while the fold's file I/O runs.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	job, err := s.stageSnapshot()
	if job == nil || err != nil {
		return err
	}
	pubErr := s.publishSnapshot(job)
	s.commitSnapshot(job, pubErr)
	return pubErr
}

// stageSnapshot rotates the log and captures a consistent fold input
// under the store mutex. Rotating first is what makes the unlocked
// publish safe: every append after this point lands in the new log
// (sequence numbers above job.seq), so the files the commit deletes
// hold only records the published snapshot covers.
func (s *Store) stageSnapshot() (*snapJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Quiesce in-flight append fsyncs before capturing the fold: their
	// records are in the current log with sequence numbers at or below
	// the fold's, so rotating under them would let the commit prune a
	// file still owed an fsync — and the snapshot must include every
	// graph those appends are about to register. The rotating flag
	// holds new appends off (they park on syncCond) so a steady upload
	// stream cannot starve the fold.
	s.rotating = true
	defer func() {
		s.rotating = false
		s.syncCond.Broadcast()
	}()
	for s.pendingSyncs > 0 && !s.closed {
		s.syncCond.Wait()
	}
	if s.closed {
		return nil, ErrClosed
	}
	if s.failed != nil {
		return nil, fmt.Errorf("store: log writes disabled after earlier failure: %w", s.failed)
	}
	if s.hasManifest && s.appendsSinceSnap == 0 && !s.hintsDirty && !s.epochDirty {
		return nil, nil
	}
	if err := s.walBuf.Flush(); err != nil {
		s.failed = err
		return nil, fmt.Errorf("store: flushing log before snapshot: %w", err)
	}
	job := &snapJob{
		seq:           s.seq,
		epoch:         s.epoch,
		name:          fmt.Sprintf("snapshot-%016x.qcs", s.seq),
		recs:          append([]*graphRec(nil), s.graphs...),
		manGraphs:     make([]manifestGraph, len(s.graphs)),
		stagedAppends: s.appendsSinceSnap,
	}
	for i, r := range s.graphs {
		// Touch never mutates a published *SketchParams (it swaps in a
		// fresh clone), so stashing the pointer here is race-free.
		job.manGraphs[i] = manifestGraph{
			Digest:    formatDigest(r.digest),
			N:         r.g.N(),
			M:         r.g.M(),
			Gen:       r.gen,
			Seq:       r.seq,
			LastQuery: r.lastQuery,
			Sketch:    r.sketch,
		}
	}
	// Cleared before rotateLog's unlocked window: a touch landing in
	// that window re-dirties the hints and is caught by the next fold.
	// A publish failure re-dirties both in commitSnapshot.
	s.hintsDirty = false
	s.epochDirty = false
	if err := s.rotateLog(job.seq); err != nil {
		return nil, err
	}
	return job, nil
}

// publishSnapshot writes and atomically renames the snapshot and the
// manifest. No store mutex is held; the job carries everything needed.
func (s *Store) publishSnapshot(job *snapJob) error {
	body, err := encodeSnapshot(job.recs)
	if err != nil {
		return err
	}
	job.bodyBytes = int64(len(body))
	if err := writeFileAtomic(filepath.Join(s.dir, job.name), body); err != nil {
		return err
	}
	man := manifest{
		FormatVersion: storeFormatVersion,
		CodecVersion:  graph.EdgeListVersion,
		SnapshotSeq:   job.seq,
		Epoch:         job.epoch,
		Snapshot:      job.name,
		Graphs:        job.manGraphs,
	}
	manRaw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	return writeFileAtomic(filepath.Join(s.dir, manifestName), manRaw)
}

// commitSnapshot records the fold's outcome and prunes superseded
// files. On failure nothing on disk needs undoing — the old manifest
// still blesses the old snapshot, the early-rotated logs replay — so
// the commit just re-arms the fold triggers.
func (s *Store) commitSnapshot(job *snapJob, pubErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pubErr != nil {
		s.lastSnapErr = pubErr.Error()
		s.hintsDirty = true
		s.epochDirty = true
		return
	}
	s.hasManifest = true
	s.snapshotSeq = job.seq
	s.snapshotBytes = job.bodyBytes
	s.snapshots++
	s.appendsSinceSnap -= job.stagedAppends
	s.lastSnapErr = ""
	s.removeSuperseded(job.name)
}

// rotateLog starts a fresh log for records after snapSeq. Called with
// the store mutex held and the rotating flag set; the file creation
// and directory fsync run with the mutex dropped — appends stay parked
// on the flag, while touches may still buffer into the old log during
// the window and be pruned with it (bounded loss of lossy hints).
func (s *Store) rotateLog(snapSeq uint64) error {
	newPath := s.walPathFor(snapSeq + 1)
	if newPath == s.walPath {
		return nil // snapshot of an empty log; keep appending to it
	}
	s.mu.Unlock()
	f, err := os.OpenFile(newPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	var dirErr error
	if err == nil {
		dirErr = syncDir(s.dir)
	}
	s.mu.Lock()
	if err != nil {
		return fmt.Errorf("store: rotating log to %s: %w", newPath, err)
	}
	if dirErr != nil {
		f.Close()
		return dirErr
	}
	if s.closed {
		f.Close()
		return ErrClosed
	}
	_ = s.walBuf.Flush() // window-buffered touches belong to the old file
	s.wal.Close()
	s.wal, s.walBuf, s.walPath, s.walBytes = f, bufio.NewWriterSize(f, 1<<16), newPath, 0
	return nil
}

// removeSuperseded deletes logs and snapshots the just-published
// snapshot makes redundant. Best-effort: leftovers are re-collected by
// the next snapshot or by Open.
func (s *Store) removeSuperseded(keepSnapshot string) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(s.dir, name)
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".qcl") && path != s.walPath:
			os.Remove(path)
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".qcs") && name != keepSnapshot:
			os.Remove(path)
		}
	}
	_ = syncDir(s.dir)
}

// quarantine moves a failed artifact aside (best-effort) so operators
// can inspect what recovery refused to serve.
func (s *Store) quarantine(name string, raw []byte, reason error) {
	s.quarantined++
	qdir := filepath.Join(s.dir, quarantineName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	body := append([]byte(fmt.Sprintf("# quarantined: %v\n", reason)), raw...)
	_ = os.WriteFile(filepath.Join(qdir, fmt.Sprintf("%03d-%s", s.quarantined, name)), body, 0o644)
}

// quarantineFileTail preserves the unreadable remainder of a log file.
func (s *Store) quarantineFileTail(path string, from int64, reason error) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return
	}
	tail, err := io.ReadAll(io.LimitReader(f, maxRecordBytes))
	if err != nil {
		return
	}
	s.quarantine(filepath.Base(path)+"-tail", tail, reason)
}

// Stats returns the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Graphs:            len(s.graphs),
		Appends:           s.appends,
		Touches:           s.touches,
		Snapshots:         s.snapshots,
		WALBytes:          s.walBytes,
		SnapshotBytes:     s.snapshotBytes,
		LastSeq:           s.seq,
		LastSnapshotError: s.lastSnapErr,
	}
}

// Close snapshots (persisting the latest warm-start hints, including
// in-memory-only recency of throttled touches), releases the lock, and
// closes the store. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	failed := s.failed
	s.mu.Unlock()

	// The final fold runs outside the store mutex like any other;
	// snapMu serializes it against an in-flight automatic one.
	var err error
	if failed == nil {
		err = s.Snapshot()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Let in-flight append fsyncs settle before closing the file out
	// from under them.
	for s.pendingSyncs > 0 {
		s.syncCond.Wait()
	}
	if s.closed {
		return err
	}
	if ferr := s.walBuf.Flush(); err == nil && ferr != nil {
		err = ferr
	}
	s.wal.Close()
	s.lock.Close()
	s.closed = true
	s.syncCond.Broadcast()
	return err
}

// Crash is a test hook simulating SIGKILL: it closes the store without
// flushing the write buffer or snapshotting, so only state already
// handed to the operating system survives — exactly the durability a
// killed process has.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wal.Close()
	s.lock.Close()
	s.syncCond.Broadcast() // wake parked appenders to observe closed
}
