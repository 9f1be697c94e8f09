package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/graph"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

// TestMetricsReadStats drives a WAL-backed server through admissions,
// a rejection, a release, a checkpoint and a refused append, then
// restores its log into a new server. After every step each manager
// and queue figure GET /metrics serves must equal the manager's or
// queue's own Stats, the restored server's from its first scrape.
func TestMetricsReadStats(t *testing.T) {
	// A path 0-1-2-3-4 with three servers of capacity 2: f0 (demand 1)
	// fits anywhere, f1 (demand 5) nowhere.
	newNet := func() *nfv.Network {
		g := graph.New(5)
		for v := 1; v < 5; v++ {
			g.MustAddEdge(v-1, v, 1)
		}
		net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f0", Demand: 1}, {ID: 1, Name: "f1", Demand: 5}})
		for v := 1; v <= 3; v++ {
			if err := net.SetServer(v, 2); err != nil {
				t.Fatal(err)
			}
			for f := 0; f < 2; f++ {
				if err := net.SetSetupCost(f, v, float64(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return net
	}
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Config{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	net := newNet()
	srv, ts := newTestServer(t, net, Config{Manager: dynamic.NewManager(net, core.Options{}).AttachWAL(log), QueueDepth: 8})

	admit := func(task nfv.Task, want int) AdmitResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/sessions", task)
		if resp.StatusCode != want {
			t.Fatalf("POST /v1/sessions %+v: status %d, want %d", task, resp.StatusCode, want)
		}
		var out AdmitResponse
		if want == http.StatusCreated {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	var held []AdmitResponse
	steps := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"admits", func(t *testing.T) {
			held = append(held,
				admit(nfv.Task{Source: 0, Destinations: []int{4}, Chain: nfv.SFC{0}}, http.StatusCreated),
				admit(nfv.Task{Source: 4, Destinations: []int{0, 2}, Chain: nfv.SFC{0}}, http.StatusCreated),
				admit(nfv.Task{Source: 1, Destinations: []int{3}, Chain: nfv.SFC{0}}, http.StatusCreated))
		}},
		{"rejection", func(t *testing.T) {
			admit(nfv.Task{Source: 0, Destinations: []int{4}, Chain: nfv.SFC{1}}, http.StatusConflict)
		}},
		{"release", func(t *testing.T) {
			req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, held[0].ID), nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE: status %d", resp.StatusCode)
			}
		}},
		{"checkpoint", func(t *testing.T) {
			if _, err := srv.Manager().Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"refused append", func(t *testing.T) {
			log.Crash()
			admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}, http.StatusServiceUnavailable)
		}},
		{"restore", func(t *testing.T) {
			l, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			net := newNet()
			m, _, err := dynamic.Restore(net, l, rec, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st := m.Stats(); st.Active != 2 || st.Admitted != 3 || st.Rejected != 1 {
				t.Fatalf("restored stats %+v, want 2 live of 3 admitted and 1 rejected", st)
			}
			srv, ts = newTestServer(t, net, Config{Manager: m, QueueDepth: 8})
		}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			step.run(t)
			checkFigures(t, ts.URL, srv)
		})
	}
}

// checkFigures scrapes url/metrics and holds every figure the manager
// and queue keep to their Stats, the live ones to the manager's state.
func checkFigures(t *testing.T, url string, srv *Server) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	m := srv.Manager()
	st, qs := m.Stats(), srv.Queue().Stats()
	degraded := 0
	for _, sess := range m.Sessions() {
		if sess.Degraded {
			degraded++
		}
	}
	counters := map[string]int64{
		"sessions_admitted_total":          int64(st.Admitted),
		"sessions_rejected_total":          int64(st.Rejected),
		"admit_commit_conflicts_total":     int64(st.CommitConflicts),
		"admit_retries_total":              int64(st.AdmitRetries),
		"admit_serialized_fallbacks_total": int64(st.SerializedFallbacks),
		"admit_coalesced_solves_total":     int64(st.CoalescedSolves),
		"wal_records_total":                int64(st.WALRecords),
		"wal_append_errors_total":          int64(st.WALAppendErrors),
		"snapshots_written_total":          int64(st.Snapshots),
		"queue_enqueued_total":             int64(qs.Enqueued),
		"queue_admitted_total":             int64(qs.Admitted),
		"queue_rejected_total":             int64(qs.Rejected),
		"queue_expired_total":              int64(qs.Expired),
		"queue_closed_total":               int64(qs.Closed),
		"queue_unavailable_total":          int64(qs.Unavailable),
		"queue_canceled_total":             int64(qs.Canceled),
		"queue_overflow_total":             int64(qs.Overflow),
		"queue_past_deadline_total":        int64(qs.PastDeadline),
		"queue_batches_total":              int64(qs.Batches),
		"queue_coalesced_solves_total":     int64(qs.Coalesced),
		"queue_speculations_total":         int64(qs.Speculated),
		"queue_speculations_stale_total":   int64(qs.Stale),
	}
	dirty := int64(0)
	if st.CheckpointDirty {
		dirty = 1
	}
	gauges := map[string]int64{
		"sessions_live":        int64(st.Active),
		"instances_live":       int64(m.LiveInstances()),
		"sessions_degraded":    int64(degraded),
		"wal_checkpoint_dirty": dirty,
	}
	saturated := 0.0
	if qs.Saturated {
		saturated = 1
	}
	floats := map[string]float64{
		"queue_depth":     float64(qs.Depth),
		"queue_saturated": saturated,
	}
	for name, want := range counters {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (served: %v), Stats says %d", name, got, ok, want)
		}
	}
	for name, want := range gauges {
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %d (served: %v), the manager says %d", name, got, ok, want)
		}
	}
	for name, want := range floats {
		if got, ok := snap.Floats[name]; !ok || got != want {
			t.Errorf("float %s = %v (served: %v), Stats says %v", name, got, ok, want)
		}
	}
}
