package store

// Replication: the WAL framing (wal.go) doubles as the wire format for
// shipping a leader's committed graphs to follower replicas. The stream
// for a cursor `from` is every resident graph with seq > from, re-framed
// with appendRecord at its original append sequence — re-encoding from
// memory rather than tailing files means a fold can prune old logs
// without breaking replicas that are arbitrarily far behind, and the
// snapshot's preserved per-graph seqs (snapshot.go) keep the cursor
// identity stable across leader restarts.
//
// Touch records never enter the stream. They are deliberately unsynced
// (store.go), so a leader crash can lose a logged tail of them and
// restart with its sequence clock rewound below numbers a follower
// already saw — if touches were replicated, the leader would then mint
// *graph* records at sequence numbers the follower skips as duplicates,
// silently diverging the replica set. Graph records are fsynced before
// registration, so a sequence number the stream has carried for a graph
// can never be reissued, and gaps in the follower's view (the touch
// seqs) are expected and harmless.
//
// The apply side (ApplyReplicated) holds followers to exactly the crash
// replay bar: a record enters the follower's store only after its CRC
// survived the frame scan and its payload's recomputed digest matched
// the stored one, and it is fsynced locally before it is visible — a
// follower's 200s are durability receipts just like a leader's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"qcongest/internal/graph"
)

// RecordGraph is the replicable record kind, re-exported so stream
// consumers outside the package can filter frames without guessing at
// the on-disk vocabulary.
const RecordGraph = recGraph

// ErrStaleRecord reports an ApplyReplicated sequence at or below the
// follower's clock: the caller's cursor tracking let a duplicate
// through, and applying it would re-sequence committed history.
var ErrStaleRecord = errors.New("store: replicated record at or below local sequence clock")

// ScanOutcome reports how a replication stream scan ended.
type ScanOutcome struct {
	// Good is the byte length of the intact record prefix.
	Good int64
	// Torn reports trailing bytes that do not frame an intact record
	// (truncated transfer or corruption); everything before them was
	// delivered to the callback.
	Torn bool
	// TornErr describes the tear (nil when Torn is false).
	TornErr error
}

// ScanStream streams the intact record prefix of r to fn — the exported
// face of the WAL scanner for replication consumers. A malformed or
// checksum-failing frame ends the scan as a torn tail (reported, not an
// error); fn errors abort the scan and are returned verbatim.
func ScanStream(r io.Reader, fn func(seq uint64, kind string, payload []byte) error) (ScanOutcome, error) {
	res, err := scanRecords(r, fn)
	return ScanOutcome{Good: res.good, Torn: res.torn, TornErr: res.tornErr}, err
}

// DecodeGraphRecord decodes and digest-verifies one graph record
// payload without touching disk — the apply path for in-memory
// followers (no -data-dir), and the shared verification step behind
// ApplyReplicated. maxNodes/maxEdges bound the parse (0 = unbounded).
func DecodeGraphRecord(payload []byte, maxNodes, maxEdges int) (digest uint64, gen json.RawMessage, g *graph.Graph, err error) {
	return decodeGraphPayload(payload, maxNodes, maxEdges)
}

// ReplicationHead returns the highest committed graph sequence — what a
// caught-up follower's cursor converges to.
func (s *Store) ReplicationHead() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.headSeq
}

// SeqNotify returns a channel closed the next time the replication head
// advances. Callers re-arm by calling again; check ReplicationHead
// after (not before) grabbing the channel to avoid missing a wakeup.
func (s *Store) SeqNotify() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replNotify
}

// ReplicationStream writes every committed graph with sequence above
// from to w as framed records in ascending sequence order, returning
// the last sequence written and the head at capture time. Only
// registered graphs stream — registration happens strictly after the
// record's fsync settles, so the stream can never ship a record a
// leader crash could still take back. The capture is a consistent cut
// under the store mutex; encoding and writing run unlocked (graph
// payload fields are immutable once registered).
func (s *Store) ReplicationStream(from uint64, w io.Writer) (last, head uint64, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0, ErrClosed
	}
	head = s.headSeq
	var recs []*graphRec
	for _, r := range s.graphs {
		if r.seq > from {
			recs = append(recs, r)
		}
	}
	s.mu.Unlock()

	// Registration order is ascending-seq in steady state, but a mixed
	// recovery (synthesized legacy ordinals + log replay) is only
	// near-sorted; the wire contract is strict ascending.
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	last = from
	for _, r := range recs {
		payload, perr := encodeGraphPayload(r.digest, r.gen, r.g)
		if perr != nil {
			return last, head, perr
		}
		if _, werr := appendRecord(w, r.seq, recGraph, payload); werr != nil {
			return last, head, fmt.Errorf("store: writing replication stream: %w", werr)
		}
		last = r.seq
	}
	return last, head, nil
}

// ApplyReplicated commits one leader-framed graph record at its leader
// sequence: decode + digest-verify (identical to crash replay), append
// to the local log, fsync, register. Idempotent on digest — re-shipping
// a graph the follower already holds returns it and advances the clock
// without writing. A sequence at or below the local clock for a new
// digest is refused with ErrStaleRecord. On success the returned graph
// is durable exactly as if AppendGraph had committed it.
func (s *Store) ApplyReplicated(seq uint64, payload []byte) (*graph.Graph, json.RawMessage, error) {
	digest, gen, g, err := decodeGraphPayload(payload, s.opts.MaxNodes, s.opts.MaxEdges)
	if err != nil {
		return nil, nil, err
	}

	// Phase 1 (under mu): clock checks and the buffered record write —
	// the same shape as AppendGraph, minus duplicate-append arbitration
	// (one follower loop is the only ApplyReplicated caller).
	s.mu.Lock()
	for {
		switch {
		case s.closed:
			s.mu.Unlock()
			return nil, nil, ErrClosed
		case s.failed != nil:
			err := fmt.Errorf("store: log writes disabled after earlier failure: %w", s.failed)
			s.mu.Unlock()
			return nil, nil, err
		}
		if r, ok := s.byDigest[digest]; ok {
			if seq > s.seq {
				s.seq = seq // keep pace with the leader's clock
			}
			g, gen := r.g, r.gen
			s.mu.Unlock()
			return g, gen, nil
		}
		if seq <= s.seq {
			at := s.seq
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: record %d, clock %d", ErrStaleRecord, seq, at)
		}
		if s.rotating {
			s.syncCond.Wait()
			continue
		}
		break
	}
	n, err := appendRecord(s.walBuf, seq, recGraph, payload)
	if err == nil {
		err = s.walBuf.Flush()
	}
	if err != nil {
		s.failed = fmt.Errorf("store: applying replicated graph %s: %w", formatDigest(digest), err)
		failed := s.failed
		s.mu.Unlock()
		return nil, nil, failed
	}
	s.walBytes += n
	s.seq = seq
	s.pendingSyncs++
	wal := s.wal
	s.mu.Unlock()

	// Phase 2 (no mu): the fsync.
	syncErr := wal.Sync()

	// Phase 3 (under mu): settle.
	s.mu.Lock()
	s.pendingSyncs--
	needSnap := false
	if syncErr != nil {
		s.failed = fmt.Errorf("store: applying replicated graph %s: %w", formatDigest(digest), syncErr)
	} else {
		s.register(&graphRec{g: g, digest: digest, gen: append(json.RawMessage(nil), gen...), seq: seq})
		s.appends++
		s.appendsSinceSnap++
		needSnap = s.opts.SnapshotEvery > 0 && s.appendsSinceSnap >= s.opts.SnapshotEvery
	}
	failed := s.failed
	s.syncCond.Broadcast()
	s.mu.Unlock()

	if syncErr != nil {
		return nil, nil, failed
	}
	if needSnap {
		if err := s.Snapshot(); err != nil {
			s.mu.Lock()
			s.lastSnapErr = err.Error()
			s.mu.Unlock()
		}
	}
	return g, gen, nil
}
