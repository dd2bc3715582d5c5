package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/svc"
)

// TestDriveTalliesStatuses runs drive against a server that answers
// each diameter read by the status named in its digest: 200, 400, 429,
// 503, 500, or a hijacked connection closed without an answer.
func TestDriveTalliesStatuses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch code := strings.Split(r.URL.Path, "/")[3]; code {
		case "hijack":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case "200":
			fmt.Fprint(w, `{"value":7}`)
		default:
			w.WriteHeader(map[string]int{"400": 400, "429": 429, "503": 503, "500": 500}[code])
			fmt.Fprint(w, `{"error":"scripted"}`)
		}
	}))
	defer ts.Close()
	client := svc.NewClient(ts.URL)
	codes := []string{"200", "400", "429", "503", "500", "hijack"}

	rep, lat := drive(8, 60, 0, func(i int64) error {
		_, err := client.Diameter(codes[i%6])
		return err
	})
	want := report{Concurrency: 8, Requests: 60, Errors4xx: 10, Errors5xx: 20, Saturated503: 10, RateLimited429: 10}
	got := rep
	got.DurationSeconds, got.QPS, got.P50Ms, got.P99Ms = 0, 0, 0, 0
	if got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
	if ok := rep.Requests - rep.failures(); ok != 10 {
		t.Fatalf("%d successes, want 10 (60 requests minus %d failures)", ok, rep.failures())
	}
	if len(lat) != 60 {
		t.Fatalf("%d latencies for 60 requests", len(lat))
	}
}

// TestDriveStopsAtRequests pins -requests N to exactly N issued
// requests across 8 workers.
func TestDriveStopsAtRequests(t *testing.T) {
	var calls atomic.Int64
	seen := make([]atomic.Bool, 1000)
	rep, _ := drive(8, 1000, 0, func(i int64) error {
		calls.Add(1)
		if seen[i].Swap(true) {
			t.Errorf("request %d issued twice", i)
		}
		return nil
	})
	if calls.Load() != 1000 || rep.Requests != 1000 {
		t.Fatalf("issued %d requests, reported %d, want 1000", calls.Load(), rep.Requests)
	}
}

// TestDriveQuantilesSpanWorkers holds all 8 workers inside one request
// each, so every worker records exactly one latency, request i taking
// about i×10 ms: the quantiles must come from all 8.
func TestDriveQuantilesSpanWorkers(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(8)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	rep, lat := drive(8, 8, 0, func(i int64) error {
		arrived.Done()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("request %d: the 8 workers never ran at once", i)
		}
		time.Sleep(time.Duration(i) * 10 * time.Millisecond)
		return nil
	})
	if rep.failures() != 0 || len(lat) != 8 {
		t.Fatalf("report %+v with %d latencies, want 8 successes", rep, len(lat))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if rep.P50Ms != ms(lat[3]) || rep.P99Ms != ms(lat[6]) {
		t.Fatalf("p50 %.3f p99 %.3f, want the 4th and 7th of %v", rep.P50Ms, rep.P99Ms, lat)
	}
	if lat[6] < 60*time.Millisecond {
		t.Fatalf("7th-slowest latency %v: the slow workers' latencies are missing from %v", lat[6], lat)
	}
}

// TestDriveTimesOutSilentServer points a short-timeout client at a
// handler that never answers: drive must finish and count the request
// as a failure instead of hanging.
func TestDriveTimesOutSilentServer(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)
	client := svc.NewClient(ts.URL)
	client.HTTPClient = &http.Client{Timeout: 100 * time.Millisecond}

	done := make(chan report, 1)
	go func() {
		rep, _ := drive(1, 1, 0, func(int64) error {
			_, err := client.Diameter("silent")
			return err
		})
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Requests != 1 || rep.Errors5xx != 1 {
			t.Fatalf("report %+v, want the one request tallied as a 5xx", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drive still waiting on a server that never answers")
	}
}

// TestReportKeysForClusterSmoke pins the -out keys the CI cluster smoke
// greps, so a rename fails here rather than in the shell ladder.
func TestReportKeysForClusterSmoke(t *testing.T) {
	out := encodeReport(report{Mix: "cluster", Cluster: &cluster.AuditReport{Epoch: 1, ChainShardsVerified: 2}})
	for _, key := range []string{`"deadSkipped": 0`, `"laggingSkipped": 0`, `"chainShardsVerified": 2`, `"epoch": 1`} {
		if !bytes.Contains(out, []byte(key)) {
			t.Errorf("report lacks %s:\n%s", key, out)
		}
	}
}
