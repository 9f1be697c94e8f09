package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"sftree/internal/nfv"
)

// TestSolveBodyValidation is the table-driven contract for malformed
// solve requests: every rejection must come back as a JSON error
// envelope with the right status, never a 500 or a hung solve.
func TestSolveBodyValidation(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	good := testInstance(t)

	mutate := func(f func(doc *nfv.InstanceDoc)) nfv.InstanceDoc {
		doc := nfv.InstanceDoc{Network: good.Network, Task: good.Task}
		doc.Task.Destinations = append([]int(nil), good.Task.Destinations...)
		doc.Task.Chain = append(nfv.SFC(nil), good.Task.Chain...)
		f(&doc)
		return doc
	}

	cases := []struct {
		name       string
		req        SolveRequest
		wantStatus int
	}{
		{
			name:       "negative timeout_ms",
			req:        SolveRequest{Instance: good, TimeoutMS: -1},
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "hugely negative timeout_ms",
			req:        SolveRequest{Instance: good, TimeoutMS: -1 << 60},
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "overflowing timeout_ms",
			req:        SolveRequest{Instance: good, TimeoutMS: maxTimeoutMS + 1},
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "zero destinations",
			req: SolveRequest{Instance: mutate(func(doc *nfv.InstanceDoc) {
				doc.Task.Destinations = nil
			})},
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "unknown VNF in chain",
			req: SolveRequest{Instance: mutate(func(doc *nfv.InstanceDoc) {
				doc.Task.Chain = append(doc.Task.Chain, good.Network.CatalogSize()+5)
			})},
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "destination out of range",
			req: SolveRequest{Instance: mutate(func(doc *nfv.InstanceDoc) {
				doc.Task.Destinations[0] = good.Network.NumNodes() + 1
			})},
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "unknown algorithm",
			req:        SolveRequest{Instance: good, Algorithm: "simulated-annealing"},
			wantStatus: http.StatusUnprocessableEntity,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/solve", tc.req)
			assertErrorEnvelope(t, resp, tc.wantStatus)
		})
	}

	// The largest representable timeout must still solve (capped by the
	// server ceiling), proving the overflow guard rejects only what
	// solveContext cannot honor.
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: good, TimeoutMS: maxTimeoutMS})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("max valid timeout_ms: status %d, want 200", resp.StatusCode)
	}
}

// TestAdmitTimeoutValidation covers the session API's query-parameter
// flavor of the same contract.
func TestAdmitTimeoutValidation(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	task := nfv.Task{Source: 0, Destinations: []int{1, 2}, Chain: nfv.SFC{0}}
	for _, bad := range []string{"-5", "abc", fmt.Sprint(maxTimeoutMS + 1)} {
		t.Run("timeout_ms="+bad, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sessions?timeout_ms="+bad, task)
			assertErrorEnvelope(t, resp, http.StatusBadRequest)
		})
	}
	t.Run("zero destinations", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sessions",
			nfv.Task{Source: 0, Destinations: nil, Chain: nfv.SFC{0}})
		assertErrorEnvelope(t, resp, http.StatusBadRequest)
	})
	t.Run("unknown VNF", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sessions",
			nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{99}})
		assertErrorEnvelope(t, resp, http.StatusBadRequest)
	})
}

// TestOversizedInstanceIsBadRequest: a few-kB body describing a
// million-node network with a large catalog is refused by the decoder
// before anything allocates per (VNF, node) pair, as the client error
// nfv.ErrTooLarge maps to: 413.
func TestOversizedInstanceIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	instance := fmt.Sprintf(`{"network":{"nodes":1000000,"edges":[],"catalog":[%s],"servers":[]},"task":{"source":0,"destinations":[1],"chain":[0]}}`,
		strings.TrimSuffix(strings.Repeat("{},", 8), ","))
	for path, body := range map[string]string{
		"/v1/solve":    `{"instance":` + instance + `}`,
		"/v1/validate": `{"instance":` + instance + `,"embedding":null}`,
	} {
		t.Run(path, func(t *testing.T) {
			assertErrorEnvelope(t, postJSON(t, ts.URL+path, json.RawMessage(body)), http.StatusRequestEntityTooLarge)
		})
	}
}
