// End-to-end suite of the serving layer, run over real HTTP via
// httptest: upload→query→sketch round trips are asserted byte-identical
// to direct library calls, the single-flight and
// eviction behavior of the sketch cache is observed through its Stats
// counters, and the admission gates and error surface are exercised.
package svc_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qcongest/internal/baseline"
	"qcongest/internal/congest"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

// workload is the shared e2e graph: connected, weighted, small enough
// for exact metrics in test time.
func workload(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomWeights(graph.LowDiameterExpanderish(n, 4, rng), 16, rng)
	if !g.Connected() {
		t.Fatal("workload graph disconnected")
	}
	return g
}

func newService(t *testing.T, cfg svc.Config) (*svc.Server, *svc.Client) {
	t.Helper()
	s := svc.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, svc.NewClient(ts.URL)
}

// TestServiceParityWithLibrary is the determinism contract of API.md:
// every number the daemon serves — exact metrics and sketch numerators —
// is byte-identical to a direct library call on the same graph.
func TestServiceParityWithLibrary(t *testing.T) {
	g := workload(t, 120)
	sources := []int{3, 1, 4, 15, 9, 2, 6}
	const l, k = 8, 3
	eps := dist.EpsForN(g.N())

	// Library ground truth.
	wantDiam, wantRad := g.Diameter(), g.Radius()
	ref := dist.BuildSkeleton(g, sources, l, k, eps)
	wantNum := make([]int64, g.N())
	for v := 0; v < g.N(); v++ {
		wantNum[v] = ref.ApproxEccentricity(v)
	}

	_, client := newService(t, svc.Config{})
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", g.Digest()); up.Digest != want {
		t.Fatalf("digest %s != %s", up.Digest, want)
	}
	if d, err := client.Diameter(up.Digest); err != nil || d != wantDiam {
		t.Fatalf("diameter (%d, %v) != %d", d, err, wantDiam)
	}
	if r, err := client.Radius(up.Digest); err != nil || r != wantRad {
		t.Fatalf("radius (%d, %v) != %d", r, err, wantRad)
	}
	for _, v := range []int{0, 7, g.N() - 1} {
		want := g.Eccentricity(v)
		if e, err := client.Eccentricity(up.Digest, v); err != nil || e != want {
			t.Fatalf("ecc(%d) = (%d, %v) != %d", v, e, err, want)
		}
	}
	vertices := make([]int, g.N())
	for v := range vertices {
		vertices[v] = v
	}
	resp, err := client.Sketch(up.Digest, svc.SketchRequest{
		Sources: sources, L: l, K: k, EpsT: eps.T, Vertices: vertices,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Den != ref.DenOut || resp.EpsT != eps.T {
		t.Fatalf("den/epsT (%d, %d) != (%d, %d)", resp.Den, resp.EpsT, ref.DenOut, eps.T)
	}
	if len(resp.Eccentricities) != g.N() {
		t.Fatalf("got %d eccentricities, want %d", len(resp.Eccentricities), g.N())
	}
	for i, e := range resp.Eccentricities {
		if e.V != i || e.Num != wantNum[i] {
			t.Fatalf("ẽ(%d) = %d != library %d", e.V, e.Num, wantNum[i])
		}
	}
	// Defaulted epsT resolves to the same Eq. (1) choice.
	resp2, err := client.Sketch(up.Digest, svc.SketchRequest{Sources: sources, L: l, K: k})
	if err != nil || resp2.EpsT != eps.T {
		t.Fatalf("default epsT: (%d, %v), want %d", resp2.EpsT, err, eps.T)
	}
}

// TestServiceSingleFlight fires concurrent identical sketch requests at
// one cold cache entry and asserts exactly one build happened — the
// rest were served as hits or deduplicated waits — via the cache's
// Stats counters.
func TestServiceSingleFlight(t *testing.T) {
	const clients = 12
	s, client := newService(t, svc.Config{
		CacheCapacity: 4, BuildSlots: 2, BuildQueue: 2 * clients, QuerySlots: 64,
	})
	g := workload(t, 300)
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	req := svc.SketchRequest{Sources: []int{0, 1, 2, 3, 4, 5, 6, 7}, L: 16, K: 4}

	var wg sync.WaitGroup
	responses := make([]svc.SketchResponse, clients)
	errs := make([]error, clients)
	barrier := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-barrier
			responses[i], errs[i] = client.Sketch(up.Digest, req)
		}(i)
	}
	close(barrier)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(responses[i].Eccentricities) != len(req.Sources) {
			t.Fatalf("client %d: %d answers", i, len(responses[i].Eccentricities))
		}
		for j := range responses[i].Eccentricities {
			if responses[i].Eccentricities[j] != responses[0].Eccentricities[j] {
				t.Fatalf("client %d disagrees with client 0 at %d", i, j)
			}
		}
	}
	stats := s.Cache().Stats()
	if stats.Misses != 1 {
		t.Fatalf("expected exactly 1 build, got %d misses (stats %+v)", stats.Misses, stats)
	}
	if stats.Hits+stats.Waits != clients-1 {
		t.Fatalf("hits %d + waits %d != %d (stats %+v)", stats.Hits, stats.Waits, clients-1, stats)
	}
	if stats.Size != 1 {
		t.Fatalf("expected 1 resident entry, got %d", stats.Size)
	}
}

// TestServiceEviction drives more distinct sketch keys than the cache
// holds and asserts LRU eviction through Stats, including the rebuild
// of an evicted key.
func TestServiceEviction(t *testing.T) {
	s, client := newService(t, svc.Config{CacheCapacity: 2})
	g := workload(t, 80)
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) svc.SketchRequest {
		return svc.SketchRequest{Sources: []int{i, i + 1, i + 2}, L: 4, K: 2}
	}
	for i := 0; i < 4; i++ {
		if _, err := client.Sketch(up.Digest, key(i)); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	stats := s.Cache().Stats()
	if stats.Misses != 4 || stats.Evictions < 2 || stats.Size > 2 {
		t.Fatalf("after 4 distinct keys at capacity 2: %+v", stats)
	}
	// Key 0 was evicted; touching it again is a fresh build.
	if _, err := client.Sketch(up.Digest, key(0)); err != nil {
		t.Fatal(err)
	}
	if stats = s.Cache().Stats(); stats.Misses != 5 {
		t.Fatalf("evicted key did not rebuild: %+v", stats)
	}
	// A warm key is a hit, not a build.
	if _, err := client.Sketch(up.Digest, key(0)); err != nil {
		t.Fatal(err)
	}
	if after := s.Cache().Stats(); after.Misses != 5 || after.Hits != stats.Hits+1 {
		t.Fatalf("warm key re-built or missed the hit counter: %+v", after)
	}
}

// TestServiceBatchMatchesLibrary checks the /v1/batch sweep equals
// per-graph baseline.ClassicalDiameter results, including the measured
// round counts.
func TestServiceBatchMatchesLibrary(t *testing.T) {
	_, client := newService(t, svc.Config{})
	g1, g2 := workload(t, 48), graph.SpineLeaf(2, 3, 4, 2, 5)
	up1, err := client.Upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	up2, err := client.Upload(g2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Batch(svc.BatchRequest{Digests: []string{up1.Digest, up2.Digest, up1.Digest}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for i, g := range []*graph.Graph{g1, g2, g1} {
		diam, rad, stats, err := baseline.ClassicalDiameter(g, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Results[i]
		if r.Diameter != diam || r.Radius != rad || r.Rounds != stats.Rounds {
			t.Fatalf("result %d: (%d, %d, %d) != library (%d, %d, %d)",
				i, r.Diameter, r.Radius, r.Rounds, diam, rad, stats.Rounds)
		}
	}
}

// TestServiceUploadIdempotent checks digest-addressed registration:
// re-uploading is a 200 with Created=false, and the listing stays
// deduplicated.
func TestServiceUploadIdempotent(t *testing.T) {
	_, client := newService(t, svc.Config{})
	g := workload(t, 40)
	up1, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	if !up1.Created {
		t.Fatal("first upload not Created")
	}
	up2, err := client.Upload(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if up2.Created || up2.Digest != up1.Digest {
		t.Fatalf("re-upload: %+v vs %+v", up2, up1)
	}
	list, err := client.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Digest != up1.Digest || list[0].N != g.N() || list[0].M != g.M() {
		t.Fatalf("listing %+v", list)
	}
	info, err := client.GraphInfo(up1.Digest)
	if err != nil || info != up1.GraphInfo {
		t.Fatalf("info (%+v, %v) != %+v", info, err, up1.GraphInfo)
	}
}

// TestServiceGenerateDeterministic checks server-side generation is
// reproducible from the spec (same digest on a second daemon).
func TestServiceGenerateDeterministic(t *testing.T) {
	spec := svc.GenSpec{Kind: "spineleaf", Spines: 2, Leaves: 4, Hosts: 3, MaxW: 9, Seed: 42}
	_, c1 := newService(t, svc.Config{})
	_, c2 := newService(t, svc.Config{})
	up1, err := c1.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	up2, err := c2.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if up1.Digest != up2.Digest {
		t.Fatalf("same spec, different digests: %s vs %s", up1.Digest, up2.Digest)
	}
}

// TestServiceErrors walks the documented error surface of API.md.
func TestServiceErrors(t *testing.T) {
	s, client := newService(t, svc.Config{MaxGraphs: 1, MaxNodes: 1000, MaxBatchNodes: 20})
	g := workload(t, 30)
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}

	expectStatus := func(name string, err error, code int) {
		t.Helper()
		se, ok := err.(*svc.StatusError)
		if !ok {
			t.Fatalf("%s: expected StatusError, got %v", name, err)
		}
		if se.Code != code {
			t.Fatalf("%s: status %d, want %d (%s)", name, se.Code, code, se.Message)
		}
	}

	_, err = client.Diameter("zzzz")
	expectStatus("bad digest", err, http.StatusBadRequest)
	_, err = client.Diameter("00000000deadbeef")
	expectStatus("unknown digest", err, http.StatusNotFound)
	_, err = client.Eccentricity(up.Digest, -1)
	expectStatus("vertex out of range", err, http.StatusBadRequest)
	_, err = client.Sketch(up.Digest, svc.SketchRequest{L: 4, K: 2})
	expectStatus("empty sources", err, http.StatusBadRequest)
	_, err = client.Sketch(up.Digest, svc.SketchRequest{Sources: []int{99}, L: 4, K: 2})
	expectStatus("source out of range", err, http.StatusBadRequest)
	_, err = client.Sketch(up.Digest, svc.SketchRequest{Sources: []int{0}, L: 0, K: 2})
	expectStatus("l too small", err, http.StatusBadRequest)
	_, err = client.Sketch(up.Digest, svc.SketchRequest{Sources: []int{0}, L: 2_000_000_000, K: 2})
	expectStatus("l above 4n cap", err, http.StatusBadRequest)
	_, err = client.Sketch(up.Digest, svc.SketchRequest{Sources: []int{0}, L: 4, K: 2, EpsT: 1 << 40})
	expectStatus("epsT above cap", err, http.StatusBadRequest)
	_, err = client.Sketch(up.Digest, svc.SketchRequest{Sources: []int{0}, L: 4, K: 2, Vertices: []int{99}})
	expectStatus("query vertex out of range", err, http.StatusBadRequest)
	_, err = client.Batch(svc.BatchRequest{})
	expectStatus("empty batch", err, http.StatusBadRequest)
	_, err = client.Batch(svc.BatchRequest{Digests: []string{"00000000deadbeef"}})
	expectStatus("batch unknown digest", err, http.StatusNotFound)
	_, err = client.Batch(svc.BatchRequest{Digests: []string{up.Digest}}) // n=30 > MaxBatchNodes=20
	expectStatus("batch graph above node cap", err, http.StatusBadRequest)
	_, err = client.Generate(svc.GenSpec{Kind: "escher"})
	expectStatus("unknown generator", err, http.StatusBadRequest)
	_, err = client.Generate(svc.GenSpec{Kind: "cycle", N: 2})
	expectStatus("generator precondition", err, http.StatusBadRequest)
	_, err = client.Generate(svc.GenSpec{Kind: "path", N: 5000})
	expectStatus("graph too large", err, http.StatusRequestEntityTooLarge)
	// Rejected by the pre-allocation size check: a complete graph on
	// 10^9 nodes would be ~5·10^17 edges — the daemon must answer 413
	// without attempting the build.
	_, err = client.Generate(svc.GenSpec{Kind: "complete", N: 1_000_000_000})
	expectStatus("generator size bomb", err, http.StatusRequestEntityTooLarge)
	_, err = client.Upload(graph.Path(10)) // registry capacity 1, already holding g
	expectStatus("registry full", err, http.StatusInsufficientStorage)

	// Raw-route errors the typed client cannot produce.
	base := client.BaseURL
	for _, tc := range []struct {
		name, method, path, body string
		code                     int
	}{
		{"unknown route", http.MethodGet, "/v2/nope", "", http.StatusNotFound},
		{"method not allowed", http.MethodDelete, "/v1/graphs", "", http.StatusMethodNotAllowed},
		{"sketch via GET", http.MethodGet, "/v1/graphs/" + up.Digest + "/sketch", "", http.StatusMethodNotAllowed},
		{"bad JSON", http.MethodPost, "/v1/graphs", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/graphs", `{"edgelost":"n 1"}`, http.StatusBadRequest},
		{"sketch unknown field", http.MethodPost, "/v1/graphs/" + up.Digest + "/sketch",
			`{"sources":[0],"l":4,"k":2,"kernel":"sparse"}`, http.StatusBadRequest},
		{"batch workers field", http.MethodPost, "/v1/batch",
			`{"digests":["` + up.Digest + `"],"workers":2}`, http.StatusBadRequest},
		{"both sources", http.MethodPost, "/v1/graphs", `{"edgelist":"n 1","gen":{"kind":"path","n":2}}`, http.StatusBadRequest},
		{"edgelist header bomb", http.MethodPost, "/v1/graphs", `{"edgelist":"n 99999999999"}`, http.StatusRequestEntityTooLarge},
		{"neither source", http.MethodPost, "/v1/graphs", `{}`, http.StatusBadRequest},
		{"ecc missing v", http.MethodGet, "/v1/graphs/" + up.Digest + "/eccentricity", "", http.StatusBadRequest},
		{"unknown graph op", http.MethodGet, "/v1/graphs/" + up.Digest + "/girth", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// Every rejected sketch request was refused before its build.
	if st := s.Cache().Stats(); st.Misses != 0 {
		t.Fatalf("rejected sketch requests built skeletons: %+v", st)
	}
}

// TestServiceAdmissionControl saturates the build gate with cold sketch
// builds and asserts (a) overflow is rejected with 503, never a 5xx
// crash, and (b) warm reads keep being served while builds are queued.
func TestServiceAdmissionControl(t *testing.T) {
	const colds = 8
	_, client := newService(t, svc.Config{BuildSlots: 1, BuildQueue: 1, QuerySlots: 16})
	g := workload(t, 600)
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the exact metrics so reads are warm.
	if _, err := client.Diameter(up.Digest); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, colds)
	barrier := make(chan struct{})
	for i := 0; i < colds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-barrier
			_, errs[i] = client.Sketch(up.Digest, svc.SketchRequest{
				Sources: []int{i, i + 10, i + 20, i + 30}, L: 32, K: 3,
			})
		}(i)
	}
	close(barrier)
	// Warm reads proceed while the build gate is saturated.
	for i := 0; i < 5; i++ {
		if _, err := client.Radius(up.Digest); err != nil {
			t.Fatalf("warm read starved during build burst: %v", err)
		}
	}
	wg.Wait()

	var ok, saturated int
	for i, err := range errs {
		switch se, isStatus := err.(*svc.StatusError); {
		case err == nil:
			ok++
		case isStatus && se.Code == http.StatusServiceUnavailable:
			saturated++
		default:
			t.Fatalf("cold %d: unexpected error %v", i, err)
		}
	}
	if ok == 0 {
		t.Fatal("no cold build succeeded")
	}
	if ok+saturated != colds {
		t.Fatalf("ok %d + saturated %d != %d", ok, saturated, colds)
	}
	t.Logf("admission: %d built, %d shed with 503", ok, saturated)
}

// TestServiceHealthAndMetrics checks the operational endpoints: healthz
// flips to draining, and the metrics snapshot reflects traffic and
// exposes consistent cache counters.
func TestServiceHealthAndMetrics(t *testing.T) {
	s, client := newService(t, svc.Config{})
	h, err := client.Health()
	if err != nil || h.Status != "ok" {
		t.Fatalf("health (%+v, %v)", h, err)
	}

	g := workload(t, 60)
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Diameter(up.Digest); err != nil {
		t.Fatal(err)
	}
	req := svc.SketchRequest{Sources: []int{0, 1}, L: 4, K: 2}
	for i := 0; i < 3; i++ {
		if _, err := client.Sketch(up.Digest, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Diameter("zzzz"); err == nil {
		t.Fatal("expected a 400 for the 4xx counter")
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Graphs != 1 {
		t.Fatalf("metrics graphs %d", m.Graphs)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 2 {
		t.Fatalf("cache metrics %+v", m.Cache)
	}
	if rate := m.Cache.HitRate; rate < 0.6 || rate > 0.7 {
		t.Fatalf("hit rate %f, want 2/3", rate)
	}
	if q := m.Requests["query"]; q.Count < 2 || q.Errors4x != 1 || q.P50Ms <= 0 {
		t.Fatalf("query metrics %+v", q)
	}
	if sk := m.Requests["sketch"]; sk.Count != 3 || sk.P99Ms < sk.P50Ms {
		t.Fatalf("sketch metrics %+v", sk)
	}
	if up := m.Requests["upload"]; up.Count != 1 {
		t.Fatalf("upload metrics %+v", up)
	}

	s.SetHealthy(false)
	_, err = client.Health()
	if se, ok := err.(*svc.StatusError); !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining health answered %v", err)
	}
}
