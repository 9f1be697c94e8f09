package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

// TestMetricsReadStats drives a WAL-backed server through admissions,
// a rejection, a release, a checkpoint, a release after it and a
// refused append, then restores its log into a new server. After every
// step each manager and queue figure GET /metrics serves must equal the
// manager's or queue's own Stats, the restored server's from its first
// scrape, and admitted − released must equal live: the snapshot
// carries the releases before it, and replay counts the one after.
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
	release := func(id dynamic.SessionID) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, id), nil)
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
		{"release", func(t *testing.T) { release(held[0].ID) }},
		{"checkpoint", func(t *testing.T) {
			if _, err := srv.Manager().Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"release after the checkpoint", func(t *testing.T) { release(held[1].ID) }},
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
			if st := m.Stats(); st.Active != 1 || st.Admitted != 3 || st.Released != 2 || st.Rejected != 1 {
				t.Fatalf("restored stats %+v, want 1 live of 3 admitted, 2 released and 1 rejected", st)
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
	if st.Admitted-st.Released != st.Active {
		t.Errorf("admitted %d − released %d ≠ live %d", st.Admitted, st.Released, st.Active)
	}
	degraded := 0
	for _, sess := range m.Sessions() {
		if sess.Degraded {
			degraded++
		}
	}
	counters := map[string]int64{
		"sessions_admitted_total":          int64(st.Admitted),
		"sessions_released_total":          int64(st.Released),
		"sessions_rejected_total":          int64(st.Rejected),
		"admit_commit_conflicts_total":     int64(st.CommitConflicts),
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

// TestHandedManagerFeedsSolverMetrics: a server handed its manager —
// the way sftserve boots with -wal-dir, restoring the manager from its
// log first — counts its HTTP admissions in the solver figures exactly
// as a server that built its own manager, and neither counts a solve
// twice: three admissions and one POST /v1/solve are four solves.
func TestHandedManagerFeedsSolverMetrics(t *testing.T) {
	scrape := func(handed bool) obs.Snapshot {
		net, _ := sessionNetwork(t)
		rng := rand.New(rand.NewSource(21))
		var tasks []nfv.Task
		for range 3 {
			task, err := netgen.GenerateTask(net, rng, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		cfg := Config{QueueDepth: 8}
		if handed {
			l, rec, err := wal.Open(t.TempDir(), wal.Config{Policy: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			if cfg.Manager, _, err = dynamic.Restore(net, l, rec, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		_, ts := newTestServer(t, net, cfg)
		for _, task := range tasks {
			if resp := postJSON(t, ts.URL+"/v1/sessions", task); resp.StatusCode != http.StatusCreated {
				t.Fatalf("handed %v: admission status %d", handed, resp.StatusCode)
			}
		}
		if resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance(t)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("handed %v: solve status %d", handed, resp.StatusCode)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	built, handed := scrape(false), scrape(true)
	for _, h := range []string{"solver_stage1_ms", "solver_stage2_ms", "session_solve_ms"} {
		want := int64(4)
		if h == "session_solve_ms" {
			want = 3
		}
		if b, g := built.Histograms[h].Count, handed.Histograms[h].Count; b != want || g != want {
			t.Errorf("%s count: %d with a built manager, %d with a handed one, want %d", h, b, g, want)
		}
	}
	for _, c := range []string{"sfc_rows_relaxed_total", "sfc_rows_dominated_total", "sfc_rows_total", "kmb_general_branch_total"} {
		b, okB := built.Counters[c]
		g, okG := handed.Counters[c]
		if !okB || !okG || b != g {
			t.Errorf("%s: %d (present %v) with a built manager, %d (present %v) with a handed one", c, b, okB, g, okG)
		}
	}
	if built.Counters["sfc_rows_relaxed_total"] == 0 {
		t.Error("four solves relaxed no chain-search row")
	}
}
