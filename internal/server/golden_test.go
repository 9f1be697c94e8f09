package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"sftree/internal/nfv"
)

// TestResponseBytes pins what the hot endpoints put on the wire, byte
// for byte: the constant bodies are written precomputed, and a client
// that hashed or diffed responses must not see the difference.
func TestResponseBytes(t *testing.T) {
	ts := newTestServer(t, true)
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
		{"POST", "/v1/sessions", task, 201, "{\"id\":0,\"cost\":365.4001926632203}\n"},
		{"DELETE", "/v1/sessions/0", nil, 200, "{\"status\":\"released\"}\n"},
		{"DELETE", "/v1/sessions/0", nil, 404, "{\"error\":\"dynamic: unknown session: 0\"}\n"},
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
		if resp.StatusCode != tc.status || string(got) != tc.want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %q %q, want %d %q as application/json",
				tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), got, tc.status, tc.want)
		}
	}
}
