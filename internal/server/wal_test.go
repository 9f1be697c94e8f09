package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/wal"
)

// TestDeadWALAnswers503 closes the write-ahead log under a serving
// manager — a dead disk. POST and DELETE on /v1/sessions must answer
// 503 (not 409 "no capacity", not 500), the queue must book the ticket
// unavailable, sessions_rejected_total must not move, /readyz must say
// degraded and reads must keep working.
func TestDeadWALAnswers503(t *testing.T) {
	t.Run("queue-depth-8", func(t *testing.T) {
		net, task := sessionNetwork(t)
		log, _, err := wal.Open(t.TempDir(), wal.Config{Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		mgr := dynamic.NewManager(net, core.Options{}).AttachWAL(log)
		srv, ts := newTestServer(t, net, Config{Manager: mgr, QueueDepth: 8})

		resp := postJSON(t, ts.URL+"/v1/sessions", task)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit on a healthy log: status %d", resp.StatusCode)
		}
		var held AdmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&held); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		assertErrorEnvelope(t, postJSON(t, ts.URL+"/v1/sessions", task), http.StatusServiceUnavailable)
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, held.ID), nil)
		if err != nil {
			t.Fatal(err)
		}
		del, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer del.Body.Close()
		assertErrorEnvelope(t, del, http.StatusServiceUnavailable)

		snap := srv.Registry().Snapshot()
		if snap.Counters["sessions_rejected_total"] != 0 || snap.Counters["wal_append_errors_total"] != 2 {
			t.Errorf("rejected=%d wal_append_errors=%d, want 0 and 2",
				snap.Counters["sessions_rejected_total"], snap.Counters["wal_append_errors_total"])
		}
		if snap.Gauges["sessions_live"] != 1 {
			t.Errorf("sessions_live = %d, want the held session", snap.Gauges["sessions_live"])
		}
		if st := srv.Queue().Stats(); st.Unavailable != 1 || st.Rejected != 0 || st.Admitted != 1 {
			t.Errorf("queue stats %+v: want the refused ticket booked unavailable", st)
		}

		ready, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer ready.Body.Close()
		var body struct {
			Status string `json:"status"`
			Active int    `json:"active_sessions"`
			Errors int    `json:"wal_append_errors"`
		}
		if err := json.NewDecoder(ready.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if ready.StatusCode != http.StatusOK || body.Status != "degraded" || body.Active != 1 || body.Errors != 2 {
			t.Errorf("/readyz: status %d body %+v", ready.StatusCode, body)
		}
		stats, err := http.Get(ts.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		defer stats.Body.Close()
		var st dynamic.Stats
		if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if stats.StatusCode != http.StatusOK || st.Active != 1 || st.Rejected != 0 {
			t.Errorf("GET /v1/sessions: status %d stats %+v", stats.StatusCode, st)
		}
		if err := mgr.VerifyRefs(); err != nil {
			t.Error(err)
		}
	})
}
