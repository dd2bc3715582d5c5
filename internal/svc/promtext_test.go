// Strict machine-check of the Prometheus exposition view of /metrics:
// an in-repo text-format 0.0.4 parser validates every scrape line by
// line — TYPE/HELP discipline, label syntax, histogram bucket
// monotonicity and +Inf == _count — so a format regression fails CI
// even on runners without promtool.
package svc_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/svc"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promFamily is one parsed metric family.
type promFamily struct {
	name    string
	typ     string
	help    string
	samples []promSample
}

// validMetricName and validLabelName are the exposition grammar.
func validMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

// baseFamily strips histogram/summary sample suffixes.
func baseFamily(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

// parseLabels parses a {k="v",...} block with exposition escaping.
func parseLabels(t *testing.T, line string, s string) map[string]string {
	t.Helper()
	labels := map[string]string{}
	s = strings.TrimPrefix(s, "{")
	for s != "}" {
		eq := strings.Index(s, "=")
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			t.Fatalf("malformed label block in %q", line)
		}
		name := s[:eq]
		if !validMetricName(name) {
			t.Fatalf("bad label name %q in %q", name, line)
		}
		// Scan the quoted value honoring \" escapes.
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("bad escape \\%c in %q", rest[i+1], line)
				}
				i++
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			t.Fatalf("unterminated label value in %q", line)
		}
		labels[name] = val.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return labels
}

// parsePromText is the strict parser: it fails the test on any line it
// cannot account for, and returns families keyed by name.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	seen := map[string]bool{} // name + sorted label set, for duplicate detection
	var current string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !validMetricName(parts[0]) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			f := families[parts[0]]
			if f == nil {
				f = &promFamily{name: parts[0]}
				families[parts[0]] = f
			}
			f.help = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !validMetricName(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			f := families[parts[0]]
			if f == nil {
				f = &promFamily{name: parts[0]}
				families[parts[0]] = f
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			f.typ = parts[1]
			current = parts[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		// Sample line: name[{labels}] value
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validMetricName(name) {
			t.Fatalf("line %d: bad metric name in %q", ln+1, line)
		}
		labels := map[string]string{}
		if strings.HasPrefix(rest, "{") {
			end := strings.LastIndex(rest, "}")
			if end < 0 {
				t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
			}
			labels = parseLabels(t, line, rest[:end+1])
			rest = rest[end+1:]
		}
		valStr := strings.TrimSpace(rest)
		if strings.Contains(valStr, " ") {
			// A trailing timestamp would appear here; this encoder never
			// emits one.
			t.Fatalf("line %d: unexpected extra fields: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			t.Fatalf("line %d: unparsable value %q: %v", ln+1, valStr, err)
		}
		fam := baseFamily(name)
		f := families[fam]
		if f == nil || f.typ == "" {
			// Non-histogram families must match exactly.
			if f = families[name]; f == nil || f.typ == "" {
				t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
			}
			fam = name
		}
		if fam != current && name != current && baseFamily(name) != current {
			t.Fatalf("line %d: sample %q outside its family block (current %q)", ln+1, name, current)
		}
		// Duplicate detection over the full identity.
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		id := name
		for _, k := range keys {
			id += fmt.Sprintf("|%s=%s", k, labels[k])
		}
		if seen[id] {
			t.Fatalf("line %d: duplicate sample %q", ln+1, id)
		}
		seen[id] = true
		f.samples = append(f.samples, promSample{name: name, labels: labels, value: val})
	}
	return families
}

// checkHistogram validates one histogram family: per label set, buckets
// are cumulative and monotone, le="+Inf" is present and equals _count,
// and _sum/_count exist.
func checkHistogram(t *testing.T, f *promFamily) {
	t.Helper()
	type series struct {
		buckets map[string]float64 // le → cumulative count
		sum     *float64
		count   *float64
	}
	byLabels := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		id := ""
		for _, k := range keys {
			id += fmt.Sprintf("|%s=%s", k, labels[k])
		}
		return id
	}
	for _, s := range f.samples {
		key := keyOf(s.labels)
		sr := byLabels[key]
		if sr == nil {
			sr = &series{buckets: map[string]float64{}}
			byLabels[key] = sr
		}
		v := s.value
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket sample without le label", f.name)
			}
			sr.buckets[le] = v
		case strings.HasSuffix(s.name, "_sum"):
			sr.sum = &v
		case strings.HasSuffix(s.name, "_count"):
			sr.count = &v
		default:
			t.Fatalf("%s: stray sample %q in histogram family", f.name, s.name)
		}
	}
	for key, sr := range byLabels {
		if sr.sum == nil || sr.count == nil {
			t.Fatalf("%s{%s}: histogram without _sum/_count", f.name, key)
		}
		inf, ok := sr.buckets["+Inf"]
		if !ok {
			t.Fatalf("%s{%s}: histogram without le=\"+Inf\" bucket", f.name, key)
		}
		if inf != *sr.count {
			t.Fatalf("%s{%s}: le=\"+Inf\" bucket %v != _count %v", f.name, key, inf, *sr.count)
		}
		// Monotone in increasing le.
		type bound struct {
			le  float64
			cum float64
		}
		var bounds []bound
		for le, cum := range sr.buckets {
			if le == "+Inf" {
				bounds = append(bounds, bound{math.Inf(1), cum})
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s{%s}: unparsable le %q", f.name, key, le)
			}
			bounds = append(bounds, bound{v, cum})
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i].le < bounds[j].le })
		for i := 1; i < len(bounds); i++ {
			if bounds[i].cum < bounds[i-1].cum {
				t.Fatalf("%s{%s}: bucket counts not cumulative at le=%v: %v < %v",
					f.name, key, bounds[i].le, bounds[i].cum, bounds[i-1].cum)
			}
		}
	}
}

func scrape(t *testing.T, base, path string, header map[string]string) (*http.Response, string) {
	t.Helper()
	resp := get(t, base+path, header)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsPrometheusExposition(t *testing.T) {
	base, client := newRawService(t, svc.Config{RatePerKey: 0.001, RateBurst: 4})

	// Drive traffic so every family has real numbers: an upload, warm
	// and cold reads, a sketch, an error, and a rate-limited key.
	client.APIKey = "scrape-key"
	up, err := client.Upload(workload(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Diameter(up.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Sketch(up.Digest, svc.SketchRequest{Sources: []int{0, 1, 2}, L: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	get(t, base+"/v1/graphs/0123456789abcdef", nil) // a 404 for the error ledger
	for i := 0; i < 6; i++ {                        // exhaust scrape-key's burst of 4
		resp := get(t, base+"/v1/graphs", map[string]string{"X-API-Key": "limited-key"})
		io.Copy(io.Discard, resp.Body)
	}

	resp, body := scrape(t, base, "/metrics?format=prometheus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("scrape Content-Type = %q, want text/plain version=0.0.4", ct)
	}

	families := parsePromText(t, body)

	// The families the dashboards are built on must all be present.
	for _, want := range []struct {
		name, typ string
	}{
		{"qcongest_uptime_seconds", "gauge"},
		{"qcongest_registry_graphs", "gauge"},
		{"qcongest_cache_hits_total", "counter"},
		{"qcongest_cache_misses_total", "counter"},
		{"qcongest_cache_entries", "gauge"},
		{"qcongest_gate_slots_in_use", "gauge"},
		{"qcongest_requests_total", "counter"},
		{"qcongest_request_errors_total", "counter"},
		{"qcongest_requests_in_flight", "gauge"},
		{"qcongest_request_duration_seconds", "histogram"},
		{"qcongest_key_requests_total", "counter"},
		{"qcongest_key_graphs", "gauge"},
	} {
		f := families[want.name]
		if f == nil {
			t.Fatalf("family %s missing from scrape", want.name)
		}
		if f.typ != want.typ {
			t.Fatalf("family %s has type %q, want %q", want.name, f.typ, want.typ)
		}
		if f.help == "" {
			t.Fatalf("family %s has no HELP", want.name)
		}
		if len(f.samples) == 0 {
			t.Fatalf("family %s has no samples", want.name)
		}
	}

	checkHistogram(t, families["qcongest_request_duration_seconds"])

	// Counters never go negative; the driven traffic must be visible.
	for _, f := range families {
		if f.typ != "counter" {
			continue
		}
		for _, s := range f.samples {
			if s.value < 0 {
				t.Fatalf("counter %s went negative: %v", s.name, s.value)
			}
		}
	}
	var uploads, limited float64
	for _, s := range families["qcongest_requests_total"].samples {
		if s.labels["class"] == "upload" {
			uploads = s.value
		}
	}
	if uploads < 1 {
		t.Fatalf("qcongest_requests_total{class=\"upload\"} = %v after an upload", uploads)
	}
	for _, s := range families["qcongest_key_requests_total"].samples {
		if s.labels["key"] == "limited-key" && s.labels["result"] == "limited" {
			limited = s.value
		}
	}
	if limited < 1 {
		t.Fatalf("qcongest_key_requests_total{key=\"limited-key\",result=\"limited\"} = %v after overdriving the bucket", limited)
	}
}

// TestRouterPrometheusExposition runs the router's scrape through the
// same strict parser: one router over one in-memory daemon, after an
// upload and a read through the router.
func TestRouterPrometheusExposition(t *testing.T) {
	base, _ := newRawService(t, svc.Config{})
	topo, err := cluster.ParseTopology(base)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.Config{Topology: topo, ProbeEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	rc := svc.NewClient(rts.URL)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if h, err := rc.Health(); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never reported the shard ready")
		}
	}
	up, err := rc.Upload(workload(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Diameter(up.Digest); err != nil {
		t.Fatal(err)
	}

	resp, body := scrape(t, rts.URL, "/metrics?format=prometheus", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("router scrape Content-Type = %q, want text/plain version=0.0.4", ct)
	}
	families := parsePromText(t, body)
	for name, typ := range map[string]string{
		"qrouter_uptime_seconds":             "gauge",
		"qrouter_topology_epoch":             "gauge",
		"qrouter_promotions_total":           "counter",
		"qrouter_demotions_total":            "counter",
		"qrouter_adoptions_total":            "counter",
		"qrouter_promote_fails_total":        "counter",
		"qrouter_last_promotion_ms":          "gauge",
		"qrouter_shard_writes_total":         "counter",
		"qrouter_shard_write_sheds_total":    "counter",
		"qrouter_shard_reads_total":          "counter",
		"qrouter_shard_read_failovers_total": "counter",
		"qrouter_shard_read_failures_total":  "counter",
		"qrouter_peer_forwards_total":        "counter",
		"qrouter_peer_errors_total":          "counter",
		"qrouter_peer_probes_total":          "counter",
		"qrouter_peer_probe_fails_total":     "counter",
		"qrouter_peer_ready":                 "gauge",
		"qrouter_peer_alive":                 "gauge",
	} {
		f := families[name]
		if f == nil || f.typ != typ || f.help == "" || len(f.samples) == 0 {
			t.Fatalf("family %s: got %+v, want type %s with HELP and samples", name, f, typ)
		}
	}
	if s := families["qrouter_shard_writes_total"].samples[0]; s.labels["shard"] != topo.Shards[0].Name || s.value != 1 {
		t.Fatalf("qrouter_shard_writes_total after one upload: %+v", s)
	}
	if s := families["qrouter_peer_ready"].samples[0]; s.labels["peer"] != base || s.value != 1 {
		t.Fatalf("qrouter_peer_ready for the live daemon: %+v", s)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	base, _ := newRawService(t, svc.Config{})

	// Default stays JSON — the PR 4 client contract.
	resp, body := scrape(t, base, "/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics Content-Type = %q, want JSON", ct)
	}
	if !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("default /metrics body is not JSON: %.60q", body)
	}

	// A Prometheus scraper's Accept header selects the exposition.
	resp, body = scrape(t, base, "/metrics", map[string]string{
		"Accept": "text/plain;version=0.0.4;q=0.5,*/*;q=0.1",
	})
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("Accept text/plain Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	parsePromText(t, body)

	// ?format=json overrides even a text Accept header.
	resp, _ = scrape(t, base, "/metrics?format=json", map[string]string{"Accept": "text/plain"})
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("format=json Content-Type = %q, want JSON", resp.Header.Get("Content-Type"))
	}

	// ?format=prometheus works without any Accept header (curl-style).
	resp, body = scrape(t, base, "/metrics?format=prometheus", nil)
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("format=prometheus Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	parsePromText(t, body)
}

func TestStatusPage(t *testing.T) {
	base, client := newRawService(t, svc.Config{RatePerKey: 100, RateBurst: 100})
	client.APIKey = "ops"
	if _, err := client.Upload(workload(t, 40)); err != nil {
		t.Fatal(err)
	}

	resp, body := scrape(t, base, "/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status: %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("/status Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"qcongestd", "upload", "query", "sketch", "batch", "ops", "hit rate"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/status page missing %q", want)
		}
	}

	// Non-GET is rejected with the JSON error surface.
	req, _ := http.NewRequest(http.MethodPost, base+"/status", nil)
	postResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status: %d, want 405", postResp.StatusCode)
	}
}
