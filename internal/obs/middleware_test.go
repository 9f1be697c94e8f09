package obs

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newMux builds a patterned mux so the middleware can attribute
// requests to routes via http.Request.Pattern.
func newMux(t *testing.T, idCh chan<- string) *http.ServeMux {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		if idCh != nil {
			idCh <- RequestID(r.Context())
		}
		w.Write([]byte("fine"))
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	})
	return mux
}

func TestMiddlewareGeneratesRequestID(t *testing.T) {
	idCh := make(chan string, 1)
	h := Middleware(nil, nil, newMux(t, idCh))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))

	header := rec.Header().Get(RequestIDHeader)
	if len(header) != 16 {
		t.Errorf("generated request ID %q, want 16 hex chars", header)
	}
	if got := <-idCh; got != header {
		t.Errorf("context ID %q != response header %q", got, header)
	}
}

func TestMiddlewareHonorsIncomingRequestID(t *testing.T) {
	idCh := make(chan string, 1)
	h := Middleware(nil, nil, newMux(t, idCh))

	req := httptest.NewRequest("GET", "/ok", nil)
	req.Header.Set(RequestIDHeader, "caller-chosen-id")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if got := rec.Header().Get(RequestIDHeader); got != "caller-chosen-id" {
		t.Errorf("response header = %q, want caller's ID echoed", got)
	}
	if got := <-idCh; got != "caller-chosen-id" {
		t.Errorf("context ID = %q", got)
	}
}

func TestRequestIDOutsideMiddleware(t *testing.T) {
	if got := RequestID(httptest.NewRequest("GET", "/", nil).Context()); got != "" {
		t.Errorf("RequestID on bare context = %q, want empty", got)
	}
}

func TestMiddlewareRouteMetricsAndStatusCapture(t *testing.T) {
	reg := NewRegistry()
	h := Middleware(reg, nil, newMux(t, nil))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("boom status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/missing", nil))
	if rec.Code != 404 {
		t.Fatalf("missing status = %d", rec.Code)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["http_requests_total"]; got != 5 {
		t.Errorf("http_requests_total = %d, want 5", got)
	}
	if got := snap.Histograms["http_request_ms|GET /ok"].Count; got != 3 {
		t.Errorf("route histogram count = %d, want 3", got)
	}
	if got := snap.Counters["http_responses_total|GET /ok|2xx"]; got != 3 {
		t.Errorf("2xx counter = %d, want 3", got)
	}
	if got := snap.Counters["http_responses_total|GET /boom|4xx"]; got != 1 {
		t.Errorf("teapot 4xx counter = %d, want 1", got)
	}
	// Unmatched requests fall back to method+path routes.
	if got := snap.Counters["http_responses_total|GET /missing|4xx"]; got != 1 {
		t.Errorf("fallback-route 404 counter = %d, want 1", got)
	}
	if got := snap.Gauges["http_in_flight"]; got != 0 {
		t.Errorf("http_in_flight after completion = %d, want 0", got)
	}
}

func TestMiddlewareAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Middleware(nil, logger, newMux(t, nil))

	req := httptest.NewRequest("GET", "/ok", nil)
	req.Header.Set(RequestIDHeader, "log-test-id")
	h.ServeHTTP(httptest.NewRecorder(), req)

	line := buf.String()
	for _, want := range []string{"log-test-id", "GET", "/ok", "status=200"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q: %s", want, line)
		}
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /implicit", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("x")) // no explicit WriteHeader
	})
	Middleware(reg, nil, mux).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/implicit", nil))
	if got := reg.Snapshot().Counters["http_responses_total|GET /implicit|2xx"]; got != 1 {
		t.Errorf("implicit 200 not counted as 2xx: %d", got)
	}
}

// TestConnState counts connections where http.Server reports them: a
// keep-alive client's three requests ride one, a second client opens a
// second, and the open gauge returns to zero once both are closed.
func TestConnState(t *testing.T) {
	if ConnState(nil) != nil {
		t.Error("a nil registry must yield no hook")
	}
	reg := NewRegistry()
	closed := make(chan struct{}, 2)
	hook := ConnState(reg)
	ts := httptest.NewUnstartedServer(Middleware(reg, nil, newMux(t, nil)))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		hook(c, s)
		if s == http.StateClosed {
			closed <- struct{}{}
		}
	}
	ts.Start()
	defer ts.Close()
	for _, requests := range []int{3, 1} {
		tr := &http.Transport{}
		for i := 0; i < requests; i++ {
			resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/ok")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if got := reg.Gauge("http_connections_open").Value(); got != 1 {
			t.Errorf("http_connections_open = %d with one client connected", got)
		}
		tr.CloseIdleConnections()
		<-closed
	}
	snap := reg.Snapshot()
	if opened, requests := snap.Counters["http_connections_opened_total"], snap.Counters["http_requests_total"]; opened != 2 || requests != 4 {
		t.Errorf("%d connections for %d requests, want 2 for 4", opened, requests)
	}
	if got := snap.Gauges["http_connections_open"]; got != 0 {
		t.Errorf("http_connections_open = %d after both clients left", got)
	}
}
