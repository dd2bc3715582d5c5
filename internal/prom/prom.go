// Package prom is the Prometheus text exposition (version 0.0.4)
// encoder shared by the daemon's and the router's /metrics, with the
// content negotiation that selects it. No client library is linked;
// the format is simple enough that a strict in-repo parser test
// (internal/svc/promtext_test.go) machine-checks both scrapes.
package prom

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the exposition content type scrapers expect.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsText decides the /metrics view for the daemon and the router
// alike: ?format=prometheus (or json) wins, then an Accept header
// asking for text/plain or OpenMetrics — what every Prometheus scraper
// sends. The default stays JSON so older clients keep working
// unchanged.
func WantsText(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// escape escapes a label value per the exposition format.
var escape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labels renders pairs of (name, value) as a {…} label block.
func Labels(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escape.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Buf accumulates one exposition payload.
type Buf struct{ bytes.Buffer }

// Family writes the # HELP / # TYPE preamble of one metric family.
func (p *Buf) Family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line; labels is "" or a Labels block.
func (p *Buf) Sample(name, labels string, v float64) {
	p.WriteString(name)
	p.WriteString(labels)
	p.WriteByte(' ')
	p.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.WriteByte('\n')
}

// Serve answers the request with the accumulated payload.
func (p *Buf) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.Bytes())
}
