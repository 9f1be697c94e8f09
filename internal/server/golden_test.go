package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"sftree/internal/nfv"
)

// timing matches a measured duration field of an admit body.
var timing = regexp.MustCompile(`"(wait_ms|solve_ms)":([^,}]*)`)

// maskTimings replaces every timing value in body with T, failing the
// test on one that is not a duration >= 0: the values are measured, so
// only their presence, order and sign are pinned.
func maskTimings(t *testing.T, body string) string {
	t.Helper()
	return timing.ReplaceAllStringFunc(body, func(field string) string {
		m := timing.FindStringSubmatch(field)
		if v, err := strconv.ParseFloat(m[2], 64); err != nil || v < 0 {
			t.Errorf("%s = %s, want a duration >= 0", m[1], m[2])
		}
		return `"` + m[1] + `":T`
	})
}

// TestResponseBytes pins what the hot endpoints put on the wire, byte
// for byte: the constant bodies are written precomputed, and a client
// that hashed or diffed responses must not see the difference. An
// admit body carries the queue's wait/solve split after id and cost. A
// retired route answers the fallback's JSON 404.
func TestResponseBytes(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	task, err := json.Marshal(nfv.Task{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		body         []byte
		status       int
		want         string
	}{
		{"GET", "/healthz", nil, 200, "{\"status\":\"ok\"}\n"},
		{"POST", "/v1/sessions", task, 201, "{\"id\":0,\"cost\":365.4001926632203,\"wait_ms\":T,\"solve_ms\":T}\n"},
		{"DELETE", "/v1/sessions/0", nil, 200, "{\"status\":\"released\"}\n"},
		{"DELETE", "/v1/sessions/0", nil, 404, "{\"error\":\"dynamic: unknown session: 0\"}\n"},
		{"POST", "/v1/render", nil, 404, "{\"error\":\"no route for POST /v1/render\"}\n"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || maskTimings(t, string(got)) != tc.want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %q %q, want %d %q as application/json",
				tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), got, tc.status, tc.want)
		}
	}
}
