package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExactMetricMemosSplit pins the two exact-metric memos: a diameter
// read settles the diameter and radius by the bounding sweep without
// filling the eccentricity table, and the first eccentricity read fills
// the table. Which memo is warm is observed through the admission gate:
// with every build slot held, a request whose context is already
// cancelled is abandoned (503) if it is cold and answered (200) if it is
// warm.
func TestExactMetricMemosSplit(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs",
		strings.NewReader(`{"gen":{"kind":"diametercontrolled","n":96,"d":8,"maxW":16,"seed":5}}`)))
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	d, err := ParseDigest(up.Digest)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.reg.get(d)
	if !ok {
		t.Fatal("uploaded graph missing from the registry")
	}
	wantEcc := e.g.Eccentricities()
	wantD, wantR := e.g.Extremes()

	// read answers one exact-metric request; with hold set, every build
	// slot is taken and the request's context is already cancelled.
	read := func(metric string, hold bool) (int, int64) {
		t.Helper()
		ctx := context.Background()
		if hold {
			for i := 0; i < cap(s.build.slots); i++ {
				if err := s.build.enter(ctx); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				for i := 0; i < cap(s.build.slots); i++ {
					s.build.leave()
				}
			}()
			c, cancel := context.WithCancel(ctx)
			cancel()
			ctx = c
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/graphs/%s/%s", up.Digest, metric), nil).WithContext(ctx))
		var resp MetricResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, resp.Value
	}

	if code, _ := read("diameter", true); code != http.StatusServiceUnavailable {
		t.Fatalf("first diameter read with the build gate full answered %d, want a cold 503", code)
	}
	if code, got := read("diameter", false); code != http.StatusOK || got != wantD {
		t.Fatalf("diameter: %d %d, want 200 %d", code, got, wantD)
	}
	if !e.ext.isReady() || e.eccs.isReady() {
		t.Fatalf("after a diameter read: extremes ready %v, eccentricities ready %v; want true, false", e.ext.isReady(), e.eccs.isReady())
	}
	if code, got := read("radius", true); code != http.StatusOK || got != wantR {
		t.Fatalf("radius after diameter: %d %d, want a warm 200 %d", code, got, wantR)
	}
	if code, _ := read("eccentricity?v=3", true); code != http.StatusServiceUnavailable {
		t.Fatalf("first eccentricity read with the build gate full answered %d, want a cold 503", code)
	}
	if code, got := read("eccentricity?v=3", false); code != http.StatusOK || got != wantEcc[3] {
		t.Fatalf("eccentricity(3): %d %d, want 200 %d", code, got, wantEcc[3])
	}
	for v, want := range wantEcc {
		if code, got := read(fmt.Sprintf("eccentricity?v=%d", v), true); code != http.StatusOK || got != want {
			t.Fatalf("eccentricity(%d) once the table is filled: %d %d, want a warm 200 %d", v, code, got, want)
		}
	}
}
