// End-to-end suite of the raw codec-negotiated data plane: uploads via
// the JSON wrapper, the raw text codec, and the raw binary codec must
// converge on the same digest and the same sketch numerators;
// Accept-negotiated downloads must round-trip exactly; and the error
// surface (bad magic, corrupt CRC, over-limit headers, oversized
// bodies) must answer the documented status codes.
package svc_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"qcongest/internal/graph"
	"qcongest/internal/svc"
)

func rawPost(t *testing.T, base string, body []byte, ct string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRawUploadCrossCodecParity uploads the same graph three ways and
// asserts all three register the same digest (only the first creates)
// and that sketch numerators served afterward are identical regardless
// of which encoding carried the graph in.
func TestRawUploadCrossCodecParity(t *testing.T) {
	g := workload(t, 96)
	_, client := newService(t, svc.Config{})

	upJSON, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	if !upJSON.Created {
		t.Fatal("first upload did not create")
	}
	upText, err := client.UploadWire(g, false)
	if err != nil {
		t.Fatal(err)
	}
	upBin, err := client.UploadWire(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if upText.Digest != upJSON.Digest || upBin.Digest != upJSON.Digest {
		t.Fatalf("digests diverge across codecs: json=%s text=%s binary=%s",
			upJSON.Digest, upText.Digest, upBin.Digest)
	}
	if upText.Created || upBin.Created {
		t.Fatal("raw re-uploads of the same graph were not idempotent")
	}

	req := svc.SketchRequest{Sources: []int{0, 5, 9}, L: 8, K: 3}
	ref, err := client.Sketch(upJSON.Digest, req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.Sketch(upBin.Digest, req)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Den != again.Den || !reflect.DeepEqual(ref.Eccentricities, again.Eccentricities) {
		t.Fatal("sketch numerators depend on the upload codec")
	}
}

// TestGraphDownloadNegotiation pins the Accept/?format= download path:
// both codecs round-trip the digest exactly, unknown Accept values keep
// serving the JSON info document.
func TestGraphDownloadNegotiation(t *testing.T) {
	g := workload(t, 64)
	_, client := newService(t, svc.Config{})
	up, err := client.Upload(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		got, err := client.FetchGraph(up.Digest, binary)
		if err != nil {
			t.Fatalf("fetch binary=%v: %v", binary, err)
		}
		if got.Digest() != g.Digest() {
			t.Fatalf("fetch binary=%v changed digest", binary)
		}
	}
	// Default stays the JSON info document.
	info, err := client.GraphInfo(up.Digest)
	if err != nil || info.Digest != up.Digest || info.M != g.M() {
		t.Fatalf("info fetch: (%+v, %v)", info, err)
	}
}

// TestRawUploadErrors pins the upload error surface of the raw codecs
// and the JSON wrapper.
func TestRawUploadErrors(t *testing.T) {
	server, client := newService(t, svc.Config{MaxNodes: 128, MaxEdges: 256, MaxBodyBytes: 1 << 16})
	_ = server
	base := strings.TrimRight(client.BaseURL, "/")

	valid := graph.FormatBinary(workload(t, 64))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x40

	for _, tc := range []struct {
		name string
		body []byte
		ct   string
		code int
		want string
	}{
		{"bad magic", []byte("garbage"), "application/x-qcongest-graph", http.StatusBadRequest, "bad binary magic"},
		{"text through binary type", graph.FormatEdgeList(workload(t, 64)), "application/x-qcongest-graph", http.StatusBadRequest, "bad binary magic"},
		{"corrupt crc", corrupt, "application/x-qcongest-graph", http.StatusBadRequest, "checksum"},
		{"over node limit binary", graph.FormatBinary(graph.Path(500)), "application/x-qcongest-graph", http.StatusRequestEntityTooLarge, "exceeds limit"},
		{"over node limit text", graph.FormatEdgeList(graph.Path(500)), "application/x-qcongest-edgelist", http.StatusRequestEntityTooLarge, "exceeds limit"},
		{"bad text", []byte("not an edge list"), "application/x-qcongest-edgelist", http.StatusBadRequest, "header"},
		{"json neither field", []byte(`{}`), "application/json", http.StatusBadRequest, "exactly one"},
		{"json both fields", []byte(`{"edgelist":"n 2\n0 1 1\n","gen":{"kind":"path","n":4}}`), "application/json", http.StatusBadRequest, "exactly one"},
		{"json unknown field", []byte(`{"bogus":1}`), "application/json", http.StatusBadRequest, "unknown field"},
		{"json truncated", []byte(`{"edgelist":`), "application/json", http.StatusBadRequest, "bad request body"},
		{"json over node limit edgelist", []byte(`{"edgelist":"n 500\n"}`), "application/json", http.StatusRequestEntityTooLarge, "exceeds limit"},
		{"json over limit gen", []byte(`{"gen":{"kind":"path","n":500}}`), "application/json", http.StatusRequestEntityTooLarge, "exceeds the graph limits"},
		{"json unknown gen kind", []byte(`{"gen":{"kind":"moebius","n":4}}`), "application/json", http.StatusBadRequest, "unknown generator kind"},
		// An unknown Content-Type falls back to the JSON wrapper and
		// reports a JSON decode error.
		{"unknown content type", []byte("n 2\n0 1 1\n"), "text/plain", http.StatusBadRequest, "bad request body"},
	} {
		resp := rawPost(t, base, tc.body, tc.ct)
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d (body %s), want %d", tc.name, resp.StatusCode, raw, tc.code)
		}
		var er svc.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, tc.want) {
			t.Fatalf("%s: error body %q does not mention %q", tc.name, raw, tc.want)
		}
	}

	// A body over MaxBodyBytes draws the documented 413 even when its
	// codec header is valid (the stream hits the MaxBytesReader cap).
	big := graph.FormatEdgeList(workload(t, 128))
	for len(big) <= 1<<16 {
		big = append(big, "# padding comment line\n"...)
	}
	resp := rawPost(t, base, big, "application/x-qcongest-edgelist")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}
