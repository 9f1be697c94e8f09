package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"
)

// RequestIDHeader carries the request ID: honored when the client
// sends one, generated otherwise, always echoed on the response.
const RequestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// RequestID returns the request ID the middleware stored in ctx, or ""
// outside a middleware-wrapped handler.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// WithRequestID returns a context carrying id, exactly as the HTTP
// middleware stores it. Non-HTTP callers (batch harnesses, chaos
// drivers) use it to stamp their solver traces with an origin.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// newRequestID draws a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeKey names the two per-route metrics a finished request updates:
// the route's latency histogram and its status-class counter.
type routeKey struct {
	route string
	class int // status / 100
}

type routeMetrics struct {
	ms        *Histogram
	responses *Counter
}

// ConnState returns a hook for http.Server.ConnState that counts
// accepted connections (http_connections_opened_total) and tracks the
// ones still open (http_connections_open). Beside http_requests_total
// it gives requests per connection: a client that drops its connection
// after every response shows up as a ratio near one. A nil registry
// yields a nil hook, which http.Server takes as none.
func ConnState(reg *Registry) func(net.Conn, http.ConnState) {
	if reg == nil {
		return nil
	}
	opened, open := reg.Counter("http_connections_opened_total"), reg.Gauge("http_connections_open")
	return func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			opened.Inc()
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
}

// Middleware wraps next with the request-scoped observability stack:
// request-ID propagation (context + response header), one structured
// slog access line per request, an in-flight gauge, and per-route
// latency histograms and status-class counters in reg. Route names use
// the ServeMux pattern that matched (http_request_ms|POST /v1/solve),
// falling back to the method plus raw path for unmatched requests. A
// nil logger disables access logging; a nil registry disables metrics.
func Middleware(reg *Registry, logger *slog.Logger, next http.Handler) http.Handler {
	var inflight *Gauge
	var total *Counter
	if reg != nil {
		inflight = reg.Gauge("http_in_flight")
		total = reg.Counter("http_requests_total")
	}
	// The handles of matched routes are resolved once: mux patterns are
	// a finite set, raw paths of unmatched requests are not.
	var mu sync.RWMutex
	routes := make(map[routeKey]routeMetrics)
	metrics := func(route string, class int, matched bool) routeMetrics {
		key := routeKey{route, class}
		mu.RLock()
		m, ok := routes[key]
		mu.RUnlock()
		if ok {
			return m
		}
		m = routeMetrics{
			ms:        reg.Histogram("http_request_ms|"+route, nil),
			responses: reg.Counter(fmt.Sprintf("http_responses_total|%s|%dxx", route, class)),
		}
		if matched {
			mu.Lock()
			routes[key] = m
			mu.Unlock()
		}
		return m
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		if reg != nil {
			total.Inc()
			inflight.Add(1)
			defer inflight.Add(-1)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 { // handler wrote nothing: net/http sends 200
			sw.status = http.StatusOK
		}

		// The mux sets Pattern on the request in place, so after next
		// returns it names the route that matched.
		route := r.Pattern
		if route == "" {
			route = r.Method + " " + r.URL.Path
		}
		if reg != nil {
			m := metrics(route, sw.status/100, r.Pattern != "")
			m.ms.ObserveDuration(elapsed)
			m.responses.Inc()
		}
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "http request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("dur_ms", float64(elapsed)/float64(time.Millisecond)),
			)
		}
	})
}
