package svc

// Durability wiring: Open boots a Server over a crash-safe data dir,
// replaying the store into the registry and pre-warming the hottest
// recovered graphs. The recovery ordering is deliberate —
//
//  1. store.Open replays manifest → snapshot → log, digest-verifying
//     every graph (quarantining mismatches) and truncating torn tails;
//  2. every recovered graph is registered before the listener is ever
//     handed the Server, so a client can never observe a half-replayed
//     registry;
//  3. warm-start runs in the background after that: correctness never
//     waits on warmth, cold reads against a recovering daemon are
//     merely first-touch builds.
//
// Every numeric answer after a reboot is byte-identical to the answers
// before it: the digest names the graph, and the API.md determinism
// contract (same digest + params ⇒ same numerators) does the rest.

import (
	"context"
	"fmt"
	"sort"

	"qcongest/internal/dist"
	"qcongest/internal/store"
)

// Open is New plus durability: when cfg.DataDir is set, it opens (or
// creates) the crash-safe graph store there, replays every committed
// graph into the registry, and starts the warm-start pass for the
// cfg.WarmStart most-recently-queried graphs. With an empty DataDir it
// is exactly New. The caller owns Close.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := newServer(cfg)
	if cfg.DataDir == "" {
		if cfg.FollowURL != "" {
			// In-memory follower: graphs apply to the registry only
			// (digest-verified but not persisted locally); a restart
			// re-tails the leader from zero.
			if err := s.startFollower(); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	st, recovered, stats, err := store.Open(store.Options{
		Dir:           cfg.DataDir,
		SnapshotEvery: cfg.SnapshotEvery,
		MaxNodes:      cfg.MaxNodes,
		MaxEdges:      cfg.MaxEdges,
	})
	if err != nil {
		return nil, err
	}
	if len(recovered) > cfg.MaxGraphs {
		st.Close()
		return nil, fmt.Errorf("svc: data dir holds %d graphs, above MaxGraphs %d — raise the registry capacity", len(recovered), cfg.MaxGraphs)
	}
	s.store = st
	s.recovery = stats
	s.epoch.Store(st.Epoch())
	type candidate struct {
		e         *entry
		lastQuery uint64
	}
	var warm []candidate
	for _, rg := range recovered {
		e, _, err := s.reg.put(rg.Graph)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("svc: replaying recovered graph %016x: %w", rg.Digest, err)
		}
		close(e.durable) // recovered from disk: persistence is settled
		e.warmSketch = rg.Sketch
		if rg.LastQuery > 0 {
			warm = append(warm, candidate{e, rg.LastQuery})
		}
	}
	if cfg.WarmStart > 0 && len(warm) > 0 {
		// Rank by recency; LastQuery is the store's logical query clock.
		sort.Slice(warm, func(i, j int) bool { return warm[i].lastQuery > warm[j].lastQuery })
		if len(warm) > cfg.WarmStart {
			warm = warm[:cfg.WarmStart]
		}
		entries := make([]*entry, len(warm))
		for i, c := range warm {
			entries[i] = c.e
		}
		s.warmTarget.Store(int64(len(entries)))
		s.warmStop = make(chan struct{})
		s.warmWG.Add(1)
		go func() {
			defer s.warmWG.Done()
			s.warmup(entries)
		}()
	}
	if cfg.FollowURL != "" {
		// Durable follower: resume the catch-up cursor from the local
		// sequence clock (every recovered graph sits at its original
		// leader sequence, so the clock IS the replication position).
		if err := s.startFollower(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// warmup sequentially rebuilds the exact-metric memos (and, when a
// sketch hint was recovered, the cached skeleton) of each entry,
// hottest first. It runs outside the admission gates: boot-time warming
// competes with early cold traffic for CPU, not for admission slots, so
// it can never 503 a real client.
func (s *Server) warmup(entries []*entry) {
	for _, e := range entries {
		select {
		case <-s.warmStop:
			return // Close was called; stop burning CPU for a dead server
		default:
		}
		s.warmOne(e)
		s.warmDone.Add(1)
	}
}

// warmOne warms a single entry, containing any panic to that entry:
// warming is an optimization replaying persisted hints, and a daemon
// must never crash-loop at boot because a durable hint turned out to
// panic the builder (the request path survives the same panic through
// net/http's recover).
func (s *Server) warmOne(e *entry) {
	defer func() {
		if p := recover(); p != nil {
			return // this graph stays cold; the next one still warms
		}
		e.prewarmed.Store(true)
	}()
	e.extremes()
	e.eccentricities()
	if sk := e.warmSketch; sk != nil {
		// Hints are shape-validated by the store at replay and recorded
		// only after a successful build (handleSketch), so this should
		// not panic; the recover above is the backstop, not the plan.
		// EpsT resolves the way a request would, so the warmed cache
		// line matches a repeat request byte for byte.
		eps := dist.Eps{T: sk.EpsT}
		if eps.T == 0 {
			eps = dist.EpsForN(e.g.N())
		}
		s.cache.Skeleton(e.g, sk.Sources, sk.L, sk.K, eps)
	}
}

// persistGraph durably commits a freshly created registry entry,
// rolling the registration back when the store refuses — an upload is
// never acknowledged unless it will survive a crash. It always settles
// e.durable, releasing any concurrent duplicate upload blocked in
// awaitDurable.
func (s *Server) persistGraph(e *entry, gen []byte) (err error) {
	defer func() {
		e.persistErr = err
		close(e.durable)
	}()
	if s.store == nil {
		return nil
	}
	if err := s.store.AppendGraph(e.g, gen); err != nil {
		s.reg.remove(e.digest)
		return err
	}
	return nil
}

// awaitDurable blocks until e's persistence is settled and reports its
// outcome. A duplicate upload that raced the creating request must not
// answer 2xx while the creator's fsync is still in flight (or after it
// was rolled back): the 2xx-is-a-durability-receipt contract of API.md
// holds for every acknowledgment, not just the first. The wait honors
// the request context so a stalled disk cannot pin build-gate slots
// under abandoned duplicate uploads.
func (s *Server) awaitDurable(ctx context.Context, e *entry) error {
	if s.store == nil {
		return nil
	}
	select {
	case <-e.durable:
		return e.persistErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// touch records query recency (and the sketch tuple, for sketch
// queries) as a warm-start hint. Free on in-memory servers. Followers
// never touch: a touch record consumes a local sequence number, and a
// follower clock running ahead of the leader's would make every
// subsequent replicated graph look stale (ApplyReplicated refuses
// records at or below the clock). Follower warmth comes from serving
// reads, not from recorded hints.
func (s *Server) touch(e *entry, sk *store.SketchParams) {
	if s.store != nil && s.repl.Load() == nil {
		s.store.Touch(e.digest, sk)
	}
}

// noteWarmHit counts a read served from pre-warmed state.
func (s *Server) noteWarmHit(e *entry) {
	if s.store != nil && e.prewarmed.Load() {
		s.warmHits.Add(1)
	}
}

// Recovery returns the boot-time recovery accounting (zero for
// in-memory servers); cmd/qcongestd logs it at startup.
func (s *Server) Recovery() store.RecoveryStats { return s.recovery }

// Close stops the follower loop and the warm-start pass, then
// snapshots and closes the durable store (a no-op for in-memory
// servers). cmd/qcongestd calls it after the HTTP listener drains, so
// the close-time snapshot is the SIGTERM path's final fold of the log.
// Waiting for the background goroutines matters beyond tidiness: Close
// releases the data-dir lock, and a successor process must not overlap
// with this one still building or applying.
func (s *Server) Close() error {
	// Hold roleMu so a concurrent promote/demote cannot swap in a fresh
	// follow loop between the cancel and the store close.
	s.roleMu.Lock()
	if rp := s.repl.Load(); rp != nil {
		// Stop tailing before the store closes under the apply path.
		rp.cancel()
		rp.wg.Wait()
	}
	s.roleMu.Unlock()
	if s.store == nil {
		return nil
	}
	if s.warmStop != nil {
		close(s.warmStop)
		s.warmWG.Wait()
		s.warmStop = nil
	}
	return s.store.Close()
}

// Crash is a test hook simulating SIGKILL: the store is dropped without
// flushing or snapshotting (see store.Crash). In-memory servers no-op.
func (s *Server) Crash() {
	if s.store != nil {
		s.store.Crash()
	}
}
