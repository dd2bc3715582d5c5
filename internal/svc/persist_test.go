// End-to-end durability suite: the ISSUE 5 acceptance criterion — a
// daemon restarted over a populated data dir serves every previously
// committed graph with byte-identical digests and sketch numerators —
// plus the PR 4 error-surface gaps (restart during drain, double boot,
// read-only data dir) and the warm-start behavior, all over real HTTP.
package svc_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qcongest/internal/svc"
)

// openPersistent boots a persistent Server over dir and serves it.
func openPersistent(t *testing.T, cfg svc.Config) (*svc.Server, *svc.Client) {
	t.Helper()
	s, err := svc.Open(cfg)
	if err != nil {
		t.Fatalf("svc.Open(%s): %v", cfg.DataDir, err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, svc.NewClient(ts.URL)
}

// TestServiceRestartServesCommitted is the acceptance walk: commit
// graphs (uploaded and generated), record every answer, SIGKILL the
// daemon, reboot over the same dir, and assert the full answer surface
// is byte-identical — then do it again through the graceful
// (snapshotting) shutdown path.
func TestServiceRestartServesCommitted(t *testing.T) {
	dir := t.TempDir()
	g := workload(t, 96)
	sketchReq := svc.SketchRequest{Sources: []int{3, 1, 4, 15}, L: 8, K: 3}

	s1, c1 := openPersistent(t, svc.Config{DataDir: dir})
	up, err := c1.Upload(g)
	if err != nil || !up.Created {
		t.Fatalf("upload: (%+v, %v)", up, err)
	}
	gen, err := c1.Generate(svc.GenSpec{Kind: "spineleaf", Spines: 2, Leaves: 3, Hosts: 2, Seed: 5})
	if err != nil || !gen.Created {
		t.Fatalf("generate: (%+v, %v)", gen, err)
	}
	wantDiam, err := c1.Diameter(up.Digest)
	if err != nil {
		t.Fatal(err)
	}
	wantSketch, err := c1.Sketch(up.Digest, sketchReq)
	if err != nil {
		t.Fatal(err)
	}
	wantGenDiam, err := c1.Diameter(gen.Digest)
	if err != nil {
		t.Fatal(err)
	}

	verify := func(t *testing.T, c *svc.Client, recovered int) {
		t.Helper()
		h, err := c.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.Store == nil || h.Store.RecoveredGraphs != recovered {
			t.Fatalf("healthz store section: %+v, want %d recovered", h.Store, recovered)
		}
		graphs, err := c.Graphs()
		if err != nil || len(graphs) != 2 {
			t.Fatalf("listing: (%v, %v), want both graphs", graphs, err)
		}
		// Re-registering answers the recovered entry, never a fresh one.
		reUp, err := c.Upload(g)
		if err != nil || reUp.Created || reUp.Digest != up.Digest {
			t.Fatalf("re-upload: (%+v, %v)", reUp, err)
		}
		if d, err := c.Diameter(up.Digest); err != nil || d != wantDiam {
			t.Fatalf("diameter (%d, %v) != %d across restart", d, err, wantDiam)
		}
		if d, err := c.Diameter(gen.Digest); err != nil || d != wantGenDiam {
			t.Fatalf("generated diameter (%d, %v) != %d across restart", d, err, wantGenDiam)
		}
		sk, err := c.Sketch(up.Digest, sketchReq)
		if err != nil {
			t.Fatal(err)
		}
		if sk.Den != wantSketch.Den || sk.EpsT != wantSketch.EpsT || len(sk.Eccentricities) != len(wantSketch.Eccentricities) {
			t.Fatalf("sketch envelope drifted: %+v != %+v", sk, wantSketch)
		}
		for i := range sk.Eccentricities {
			if sk.Eccentricities[i] != wantSketch.Eccentricities[i] {
				t.Fatalf("sketch numerator %d drifted: %+v != %+v", i, sk.Eccentricities[i], wantSketch.Eccentricities[i])
			}
		}
		m, err := c.Metrics()
		if err != nil || m.Store == nil {
			t.Fatalf("metrics store section missing: %v", err)
		}
		if m.Store.RecoveredGraphs != recovered || m.Store.QuarantinedRecords != 0 {
			t.Fatalf("metrics store section: %+v", m.Store)
		}
	}

	t.Run("after SIGKILL (log replay)", func(t *testing.T) {
		s1.Crash()
		s2, c2 := openPersistent(t, svc.Config{DataDir: dir})
		verify(t, c2, 2)
		if err := s2.Close(); err != nil {
			t.Fatalf("graceful close: %v", err)
		}
	})
	t.Run("after graceful close (snapshot replay)", func(t *testing.T) {
		_, c3 := openPersistent(t, svc.Config{DataDir: dir})
		verify(t, c3, 2)
	})
}

// TestServiceWarmStart closes a queried daemon gracefully, reboots with
// WarmStart, waits for the warm-up pass, and asserts a repeat of the
// recorded sketch tuple is a pure cache hit whose service is counted in
// the warm-start ledger.
func TestServiceWarmStart(t *testing.T) {
	dir := t.TempDir()
	sketchReq := svc.SketchRequest{Sources: []int{0, 2, 5}, L: 6, K: 2}

	s1, c1 := openPersistent(t, svc.Config{DataDir: dir})
	up, err := c1.Generate(svc.GenSpec{Kind: "lowdiameter", N: 64, AvgDeg: 4, MaxW: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Diameter(up.Digest); err != nil {
		t.Fatal(err)
	}
	want, err := c1.Sketch(up.Digest, sketchReq)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, c2 := openPersistent(t, svc.Config{DataDir: dir, WarmStart: 4})
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c2.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.Store != nil && h.Store.WarmupTarget == 1 && h.Store.WarmupDone == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm-up never completed: %+v", h.Store)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The warmed cache line must serve the recorded tuple as a hit.
	before := s2.Cache().Stats()
	if before.Misses != 1 {
		t.Fatalf("warm-up should have built exactly 1 skeleton, stats %+v", before)
	}
	got, err := c2.Sketch(up.Digest, sketchReq)
	if err != nil {
		t.Fatal(err)
	}
	after := s2.Cache().Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("repeat of the warmed tuple was not a pure hit: %+v -> %+v", before, after)
	}
	if got.Den != want.Den || fmt.Sprint(got.Eccentricities) != fmt.Sprint(want.Eccentricities) {
		t.Fatalf("warmed sketch drifted: %+v != %+v", got, want)
	}
	// Both exact-metric memos were pre-warmed too: diameter, radius and
	// eccentricity reads ride the query gate and land in the warm-start
	// ledger, one hit each.
	if _, err := c2.Diameter(up.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Radius(up.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Eccentricity(up.Digest, 7); err != nil {
		t.Fatal(err)
	}
	m, err := c2.Metrics()
	if err != nil || m.Store == nil {
		t.Fatal(err)
	}
	if m.Store.WarmStartHits != 4 {
		t.Fatalf("warm-start hits = %d, want 4 (sketch, diameter, radius, eccentricity)", m.Store.WarmStartHits)
	}
}

// TestServiceRestartDuringDrain closes the server while uploads are in
// flight (the SIGTERM-while-snapshotting race) and asserts every upload
// that was acknowledged with a 2xx survives the reboot; uploads caught
// by the closing store fail their request rather than corrupting state.
func TestServiceRestartDuringDrain(t *testing.T) {
	dir := t.TempDir()
	s, c := openPersistent(t, svc.Config{DataDir: dir, BuildSlots: 4})

	const uploaders = 8
	var (
		mu    sync.Mutex
		acked []string
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 6; j++ {
				up, err := c.Generate(svc.GenSpec{Kind: "cycle", N: 10 + i*16 + j})
				if err != nil {
					continue // rejected by the drain: must not be acked
				}
				mu.Lock()
				acked = append(acked, up.Digest)
				mu.Unlock()
			}
		}(i)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let some uploads land mid-close
	if err := s.Close(); err != nil {
		t.Fatalf("close during drain: %v", err)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Skip("close won the race before any upload was acknowledged")
	}

	_, c2 := openPersistent(t, svc.Config{DataDir: dir})
	graphs, err := c2.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(graphs))
	for _, gi := range graphs {
		have[gi.Digest] = true
	}
	for _, d := range acked {
		if !have[d] {
			t.Fatalf("acknowledged graph %s lost across the drain restart", d)
		}
	}
}

// TestServiceUploadRollbackWhenStoreRefuses drives the upload path
// against a store that can no longer commit (closed underneath the
// server, the deterministic stand-in for a disk failure) and asserts
// the contract around a failed durable append: the upload answers 5xx,
// the registration is rolled back, and a duplicate upload can never
// harvest a 2xx durability receipt from the failed attempt.
func TestServiceUploadRollbackWhenStoreRefuses(t *testing.T) {
	dir := t.TempDir()
	s, c := openPersistent(t, svc.Config{DataDir: dir})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	g := workload(t, 32)
	if _, err := c.Upload(g); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("upload against a refusing store = %v, want 500", err)
	}
	// Rolled back: not listed, and a retry hits the created=true path
	// again (another 500), never a stale created=false 200.
	if graphs, err := c.Graphs(); err != nil || len(graphs) != 0 {
		t.Fatalf("rolled-back upload still listed: (%v, %v)", graphs, err)
	}
	if _, err := c.Upload(g); err == nil {
		t.Fatal("duplicate upload harvested an acknowledgment from a failed append")
	}
}

// TestServiceDoubleBoot asserts a second daemon over a live data dir
// fails with the lock error instead of corrupting the store.
func TestServiceDoubleBoot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openPersistent(t, svc.Config{DataDir: dir})
	defer s.Close()
	_, err := svc.Open(svc.Config{DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("double boot error = %v", err)
	}
}

// TestServiceDataDirErrors asserts hostile data-dir shapes yield clean
// startup errors, never panics: a path that is a file, and a read-only
// directory.
func TestServiceDataDirErrors(t *testing.T) {
	t.Run("path is a file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "flat")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Open(svc.Config{DataDir: path}); err == nil {
			t.Fatal("expected a startup error for a file data dir")
		}
	})
	t.Run("read-only dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(dir, 0o500); err != nil {
			t.Fatal(err)
		}
		if probe := os.WriteFile(filepath.Join(dir, "probe"), nil, 0o644); probe == nil {
			t.Skip("running with CAP_DAC_OVERRIDE; read-only dir not enforceable")
		}
		_, err := svc.Open(svc.Config{DataDir: dir})
		if err == nil || !strings.Contains(err.Error(), "not writable") {
			t.Fatalf("read-only data dir error = %v", err)
		}
	})
}

// TestServiceInMemoryUnchanged pins the PR 4 behavior when no data dir
// is configured: Open == New, no store sections, Close is a no-op.
func TestServiceInMemoryUnchanged(t *testing.T) {
	s, err := svc.Open(svc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := svc.NewClient(ts.URL)
	if h, err := c.Health(); err != nil || h.Store != nil {
		t.Fatalf("in-memory healthz grew a store section: (%+v, %v)", h, err)
	}
	if m, err := c.Metrics(); err != nil || m.Store != nil {
		t.Fatalf("in-memory metrics grew a store section: (%+v, %v)", m, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("in-memory close: %v", err)
	}
}
