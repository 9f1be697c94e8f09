package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/faults"
	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
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

// TestCrashUnderConcurrentAdmissions kills the write-ahead log of a
// serving manager while eight clients admit over HTTP, and releases
// every third acked session. The kill fires right after the 40th
// acked admission, counted, not timed, so other admissions and
// releases are in flight around it. Recovery onto a fresh copy of the
// base network must hold exactly what the clients were told: every
// acked session that was not acked released, and nothing else.
func TestCrashUnderConcurrentAdmissions(t *testing.T) {
	const clients, perClient, crashAt = 8, 16, 40
	net, _ := sessionNetwork(t)
	base := net.Clone()
	rng := rand.New(rand.NewSource(3))
	tasks := make([][]nfv.Task, clients)
	for c := range tasks {
		for range perClient {
			task, err := netgen.GenerateTask(net, rng, 2+rng.Intn(2), 2)
			if err != nil {
				t.Fatal(err)
			}
			tasks[c] = append(tasks[c], task)
		}
	}
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mgr := dynamic.NewManager(net, core.Options{}).AttachWAL(log)
	srv, ts := newTestServer(t, net, Config{Manager: mgr})
	client := NewClient(ts.URL, nil)
	ctx := context.Background()

	var (
		acks    atomic.Int64
		crashed atomic.Bool
		mu      sync.Mutex
		acked   = make(map[dynamic.SessionID]bool)
		freed   = make(map[dynamic.SessionID]bool)
		wg      sync.WaitGroup
	)
	// unavailable reports the 503 a dead log answers; before the crash
	// it is a failure like any other.
	unavailable := func(err error) bool {
		var apiErr *APIError
		return crashed.Load() && errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable
	}
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, task := range tasks[c] {
				resp, err := client.Admit(ctx, task)
				var apiErr *APIError
				switch {
				case err == nil:
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict:
					continue
				case unavailable(err):
					return
				default:
					t.Errorf("admit: %v", err)
					return
				}
				mu.Lock()
				acked[resp.ID] = true
				mu.Unlock()
				n := acks.Add(1)
				if n == crashAt {
					crashed.Store(true)
					log.Crash()
				}
				if n%3 != 0 {
					continue
				}
				switch err := client.Release(ctx, resp.ID); {
				case err == nil:
					mu.Lock()
					freed[resp.ID] = true
					mu.Unlock()
				case unavailable(err):
					return
				default:
					t.Errorf("release %d: %v", resp.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !crashed.Load() {
		t.Fatalf("only %d admissions acked, the crash needs %d", acks.Load(), crashAt)
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Queue().Close(dctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	restored, rep, err := dynamic.Restore(base, l2, rec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Errorf("restore errors: %v", rep.Errors)
	}
	live := make(map[dynamic.SessionID]bool)
	for _, s := range restored.Sessions() {
		live[s.ID] = true
		if !acked[s.ID] {
			t.Errorf("session %d is live but was never acked", s.ID)
		}
	}
	for id := range acked {
		if !freed[id] && !live[id] {
			t.Errorf("acked session %d was lost", id)
		}
		if freed[id] && live[id] {
			t.Errorf("session %d was acked released but is live", id)
		}
	}
	t.Logf("%d acked, %d released, %d live, %d records replayed",
		len(acked), len(freed), len(live), rep.ReplayedRecords)
}

// TestLaggingRepairMarksDirty rebases a WAL-backed manager whose log
// has died onto a network that severs its session. A repair is a fact
// of the network and cannot be refused: it is applied in memory, the
// refused records are counted, and the manager turns checkpoint-dirty —
// on /metrics and /readyz too. A snapshot on the dead log fails and
// leaves it dirty.
func TestLaggingRepairMarksDirty(t *testing.T) {
	// 0-1 (1), 1-3 (1), 1-4 (1), 0-4 (5); node 1 is the only server.
	// The session 0 -> {3, 4} places its instance at 1 and fans out
	// over 1-3 and 1-4; with 1-4 down, 4 is reached over 1-0-4.
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(1, 4, 1)
	g.MustAddEdge(0, 4, 5)
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f0", Demand: 1}})
	if err := net.SetServer(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSetupCost(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(t.TempDir(), wal.Config{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	mgr := dynamic.NewManager(net, core.Options{}).AttachWAL(log)
	srv, ts := newTestServer(t, net, Config{Manager: mgr, QueueDepth: 8})
	task := nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}}
	if resp := postJSON(t, ts.URL+"/v1/sessions", task); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit on a healthy log: status %d", resp.StatusCode)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	st := faults.NewState(net)
	if err := st.Apply(faults.Event{Kind: faults.LinkDown, U: 1, V: 4}); err != nil {
		t.Fatal(err)
	}
	degraded, err := st.Materialize(mgr.CloneNetwork())
	if err != nil {
		t.Fatal(err)
	}
	rep := mgr.Rebase(degraded)
	if rep.Affected != 1 || rep.Patched != 1 || len(rep.Sessions) != 1 {
		t.Fatalf("rebase report %+v: want the one session patched", rep)
	}
	sessions := mgr.Sessions()
	if len(sessions) != 1 || sessions[0].Degraded || sessions[0].Result.FinalCost != rep.Sessions[0].CostAfter {
		t.Fatalf("the patch is not applied in memory: %+v", sessions)
	}
	if err := conformance.CheckLive(mgr.Network(), sessions[0].Result.Embedding); err != nil {
		t.Fatalf("patched session: %v", err)
	}
	// The log refused two records, the rebase and the session's repair,
	// and holds only the admission.
	stats := mgr.Stats()
	if stats.WALAppendErrors != 2 || !stats.CheckpointDirty || stats.WALRecords != 1 {
		t.Fatalf("stats %+v: want two refused records counted and the manager dirty", stats)
	}

	snap := srv.Registry().Snapshot()
	if snap.Gauges["wal_checkpoint_dirty"] != 1 || snap.Counters["wal_append_errors_total"] != int64(stats.WALAppendErrors) {
		t.Errorf("/metrics wal_checkpoint_dirty=%d wal_append_errors_total=%d, want 1 and %d",
			snap.Gauges["wal_checkpoint_dirty"], snap.Counters["wal_append_errors_total"], stats.WALAppendErrors)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer ready.Body.Close()
	var body struct {
		Status string `json:"status"`
		Dirty  bool   `json:"wal_checkpoint_dirty"`
	}
	if err := json.NewDecoder(ready.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "degraded" || !body.Dirty {
		t.Errorf("/readyz %+v: want degraded and checkpoint-dirty", body)
	}

	if _, err := mgr.Checkpoint(); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("checkpoint on the dead log: %v, want wal.ErrClosed", err)
	}
	if !mgr.Stats().CheckpointDirty {
		t.Error("a failed checkpoint cleared the dirty mark")
	}
}
