package svc

// Client is the typed Go client of the qcongestd API, used by
// cmd/qload, examples/service, and the e2e suite. It is a thin wrapper
// over net/http: every method is one request, safe for concurrent use.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"qcongest/internal/graph"
)

// Client talks to one qcongestd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// APIKey, when set, is sent as X-API-Key on every request so the
	// daemon's per-key rate limits and graph quotas attribute traffic
	// to this caller instead of the shared "anonymous" bucket.
	APIKey string
	// RequireRequestID makes every call fail if the daemon does not
	// echo an X-Request-Id response header. Load drivers set it to turn
	// the observability contract into a hard assertion.
	RequireRequestID bool
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// StatusError is the typed error for every non-2xx response: Client
// returns it for the answers it receives, and DecodeUpload for the
// answer a rejected upload gets.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's ErrorResponse.Error body.
	Message string
	// RequestID is the daemon's X-Request-Id for the failed call, for
	// correlating client-side failures with the daemon's access log.
	RequestID string
	// RetryAfter is the Retry-After hint in seconds on 429 responses,
	// 0 when absent.
	RetryAfter int
}

// Error formats the status and server message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("svc: server answered %d: %s", e.Code, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do runs one JSON request and decodes the JSON response into out.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	ct := ""
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("svc: encoding request: %w", err)
		}
		body, ct = bytes.NewReader(raw), "application/json"
	}
	return c.send(method, path, body, ct, out)
}

// send runs one request with an arbitrary body and decodes the JSON
// response into out — the transport half of do, shared with the raw
// codec-negotiated calls.
func (c *Client) send(method, path string, body io.Reader, contentType string, out any) error {
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("svc: building request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("svc: %s %s: %w", method, path, err)
	}
	// Drain to EOF before closing (Encode's trailing newline is never
	// read by Decode) so the transport can reuse the connection.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if c.RequireRequestID && resp.Header.Get("X-Request-Id") == "" {
		return fmt.Errorf("svc: %s %s: daemon sent no X-Request-Id (status %d)", method, path, resp.StatusCode)
	}
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		msg := "(undecodable error body)"
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return &StatusError{
			Code:       resp.StatusCode,
			Message:    msg,
			RequestID:  resp.Header.Get("X-Request-Id"),
			RetryAfter: retry,
		}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("svc: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Upload registers g with the daemon via the JSON-wrapped edge-list
// form and returns its identity. Uploading an already registered graph
// succeeds with Created == false.
func (c *Client) Upload(g *graph.Graph) (UploadResponse, error) {
	var out UploadResponse
	err := c.do(http.MethodPost, "/v1/graphs", UploadRequest{EdgeList: string(graph.FormatEdgeList(g))}, &out)
	return out, err
}

// UploadWire registers g via a raw codec-negotiated upload: the request
// body is the graph itself (binary codec when binary is true, text edge
// list otherwise) with no JSON wrapper — the daemon streams it straight
// into the parser.
func (c *Client) UploadWire(g *graph.Graph, binary bool) (UploadResponse, error) {
	if binary {
		return c.UploadRaw(graph.FormatBinary(g), ctBinaryGraph)
	}
	return c.UploadRaw(graph.FormatEdgeList(g), ctEdgeList)
}

// UploadRaw posts an already-encoded graph body under the given
// Content-Type ("application/x-qcongest-graph" or
// "application/x-qcongest-edgelist"). Load drivers use it to replay one
// encode over many requests.
func (c *Client) UploadRaw(body []byte, contentType string) (UploadResponse, error) {
	var out UploadResponse
	err := c.send(http.MethodPost, "/v1/graphs", bytes.NewReader(body), contentType, &out)
	return out, err
}

// FetchGraph downloads a registered graph's body in the requested wire
// codec (Accept-negotiated) and decodes it. The decoded graph carries
// the digest it was addressed by — the round trip is exact, insertion
// order included.
func (c *Client) FetchGraph(digest string, binary bool) (*graph.Graph, error) {
	format := "edgelist"
	if binary {
		format = "binary"
	}
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/v1/graphs/"+url.PathEscape(digest)+"?format="+format, nil)
	if err != nil {
		return nil, fmt.Errorf("svc: building request: %w", err)
	}
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("svc: fetching graph %s: %w", digest, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		msg := "(undecodable error body)"
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: msg, RequestID: resp.Header.Get("X-Request-Id")}
	}
	if binary {
		return graph.DecodeBinary(resp.Body, 0, 0)
	}
	return graph.DecodeEdgeList(resp.Body, 0, 0)
}

// Generate asks the daemon to generate and register a workload graph
// server-side.
func (c *Client) Generate(spec GenSpec) (UploadResponse, error) {
	var out UploadResponse
	err := c.do(http.MethodPost, "/v1/graphs", UploadRequest{Gen: &spec}, &out)
	return out, err
}

// Graphs lists every registered graph.
func (c *Client) Graphs() ([]GraphInfo, error) {
	var out GraphListResponse
	err := c.do(http.MethodGet, "/v1/graphs", nil, &out)
	return out.Graphs, err
}

// GraphInfo fetches one registered graph's identity.
func (c *Client) GraphInfo(digest string) (GraphInfo, error) {
	var out GraphInfo
	err := c.do(http.MethodGet, "/v1/graphs/"+url.PathEscape(digest), nil, &out)
	return out, err
}

// Diameter returns the exact weighted diameter of the registered graph.
func (c *Client) Diameter(digest string) (int64, error) {
	var out MetricResponse
	err := c.do(http.MethodGet, "/v1/graphs/"+url.PathEscape(digest)+"/diameter", nil, &out)
	return out.Value, err
}

// Radius returns the exact weighted radius of the registered graph.
func (c *Client) Radius(digest string) (int64, error) {
	var out MetricResponse
	err := c.do(http.MethodGet, "/v1/graphs/"+url.PathEscape(digest)+"/radius", nil, &out)
	return out.Value, err
}

// Eccentricity returns the exact weighted eccentricity of vertex v.
func (c *Client) Eccentricity(digest string, v int) (int64, error) {
	var out MetricResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/graphs/%s/eccentricity?v=%d", url.PathEscape(digest), v), nil, &out)
	return out.Value, err
}

// Sketch builds (or serves from cache) the Lemma 3.2 skeleton for the
// request's parameter tuple and evaluates approximate eccentricities.
func (c *Client) Sketch(digest string, req SketchRequest) (SketchResponse, error) {
	var out SketchResponse
	err := c.do(http.MethodPost, "/v1/graphs/"+url.PathEscape(digest)+"/sketch", req, &out)
	return out, err
}

// Batch runs the classical exact APSP baseline over the named graphs
// as one congest.RunBatch on the daemon.
func (c *Client) Batch(req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(http.MethodPost, "/v1/batch", req, &out)
	return out, err
}

// Health fetches /healthz. A draining daemon answers with a
// *StatusError of code 503 and a decodable body; this method decodes
// the body for 2xx only.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	err := c.do(http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Metrics fetches the /metrics snapshot.
func (c *Client) Metrics() (MetricsSnapshot, error) {
	var out MetricsSnapshot
	err := c.do(http.MethodGet, "/metrics", nil, &out)
	return out, err
}
