package svc

// The request middleware layer: every request — metered or not — is
// wrapped once at the top of ServeHTTP with
//
//   - a per-request correlation ID, generated here (or echoed from a
//     well-formed inbound X-Request-Id), set on the response header
//     before any handler runs so it is present on every 2xx/4xx/5xx
//     path and embedded in error bodies by writeError;
//   - a hard body cap (http.MaxBytesReader at Config.MaxBodyBytes)
//     installed before any handler parses, so a rejected upload never
//     pays an unbounded body read — crossing the cap surfaces as the
//     documented 413;
//   - a structured JSON access log line (log/slog) carrying the ID,
//     method, path, status, class, API key, latency, and response
//     bytes, written when Config.AccessLog is set.
//
// DESIGN.md §8.5 has the layer diagram.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

const (
	// requestIDHeader is the correlation header: echoed from the
	// request when well-formed, generated otherwise, always set on the
	// response.
	requestIDHeader = "X-Request-Id"
	// apiKeyHeader attributes a request to a tenant for rate limits,
	// graph quotas, and the per-key ledgers.
	apiKeyHeader = "X-API-Key"
	// anonymousKey is the bucket requests without an API key share.
	anonymousKey = "anonymous"
	// maxKeyLen bounds one API key's length; longer keys are truncated
	// for ledger identity so a client cannot mint unbounded label
	// cardinality.
	maxKeyLen = 64
	// maxInboundIDLen bounds an echoed inbound request ID.
	maxInboundIDLen = 64
)

// responseState wraps every response writer once per request: it
// records the status and byte count for the metrics ledger and the
// access log, and carries the request class once routing resolves it.
type responseState struct {
	http.ResponseWriter
	status      int
	bytes       int64
	class       string
	wroteHeader bool
}

// WriteHeader records the first explicit status before delegating.
func (r *responseState) WriteHeader(code int) {
	if !r.wroteHeader {
		r.status = code
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write counts response bytes for the access log.
func (r *responseState) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// RequestIDs resolves request correlation IDs. The daemon and the
// router share the rule: a well-formed inbound X-Request-Id is echoed
// (so a proxy or client-assigned ID correlates across hops), anything
// else gets a fresh "<boot>-<sequence>" — unique per process boot,
// monotonic within it.
type RequestIDs struct {
	boot string
	seq  atomic.Uint64
}

// NewRequestIDs draws the boot-unique prefix for minted IDs.
func NewRequestIDs() *RequestIDs {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to a fixed
		// prefix rather than refusing to serve.
		return &RequestIDs{boot: "00000000"}
	}
	return &RequestIDs{boot: hex.EncodeToString(b[:])}
}

// Resolve returns r's correlation ID: its X-Request-Id when well-formed,
// a freshly minted one otherwise.
func (ids *RequestIDs) Resolve(r *http.Request) string {
	if id := r.Header.Get(requestIDHeader); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%08x", ids.boot, ids.seq.Add(1))
}

// validRequestID accepts 1-64 characters of [A-Za-z0-9._-] — enough
// for every common ID scheme, and safe to echo into headers and logs.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxInboundIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// apiKeyOf resolves the request's tenant key: the X-API-Key header,
// truncated to maxKeyLen, with the empty key normalized to "anonymous".
func apiKeyOf(r *http.Request) string {
	key := r.Header.Get(apiKeyHeader)
	if key == "" {
		return anonymousKey
	}
	if len(key) > maxKeyLen {
		key = key[:maxKeyLen]
	}
	return key
}

// logRequest emits one JSON access-log line. 5xx lines log at ERROR so
// a plain grep for "ERROR" finds server-side failures; everything else
// is INFO.
func (s *Server) logRequest(r *http.Request, rs *responseState, id string, d time.Duration) {
	level := slog.LevelInfo
	if rs.status >= 500 {
		level = slog.LevelError
	}
	s.logger.LogAttrs(context.Background(), level, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rs.status),
		slog.String("class", rs.class),
		slog.String("key", apiKeyOf(r)),
		slog.Float64("durMs", float64(d.Microseconds())/1000),
		slog.Int64("bytes", rs.bytes),
		slog.String("remote", r.RemoteAddr),
	)
}
