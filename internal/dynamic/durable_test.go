package dynamic

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

// openWAL opens a log in a fresh temp dir with fsync-per-append (the
// crash-safe policy the durability tests rely on).
func openWAL(t *testing.T, dir string) (*wal.Log, *wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, rec
}

// mustRestore reopens dir and restores a manager onto net, failing the
// test on a replay error or any conformance cross-check finding.
func mustRestore(t *testing.T, dir string, net *nfv.Network) (*Manager, *RecoverReport) {
	t.Helper()
	l, rec := openWAL(t, dir)
	m, rep, err := Restore(net, l, rec, core.Options{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("restore cross-check errors: %v", rep.Errors)
	}
	if err := m.VerifyRefs(); err != nil {
		t.Fatalf("restored refcounts: %v", err)
	}
	return m, rep
}

// stateFingerprint captures everything two managers must agree on:
// per-session embedding bytes, cost, degradation marks and usage
// lists, plus the refcount ledger, the next session ID and the
// admission accounting.
func stateFingerprint(t *testing.T, m *Manager) string {
	t.Helper()
	type sessState struct {
		ID       SessionID
		Emb      json.RawMessage
		Cost     float64
		Degraded bool
		Lost     []int
		Uses     [][2]int
	}
	var doc struct {
		Sessions     []sessState
		Refs         map[string]int
		NextID       SessionID
		Admitted     int
		AdmittedCost float64
	}
	for _, sess := range m.Sessions() {
		blob, err := json.Marshal(sess.Result.Embedding)
		if err != nil {
			t.Fatal(err)
		}
		doc.Sessions = append(doc.Sessions, sessState{
			ID: sess.ID, Emb: blob, Cost: sess.Result.FinalCost,
			Degraded: sess.Degraded, Lost: sess.Lost, Uses: sess.uses,
		})
	}
	doc.Refs = map[string]int{}
	for k, v := range m.Refs() {
		doc.Refs[string(rune(k[0]))+"/"+string(rune(k[1]))] = v
	}
	st := m.Stats()
	m.mu.Lock()
	doc.NextID = m.nextID
	m.mu.Unlock()
	doc.Admitted, doc.AdmittedCost = st.Admitted, st.AdmittedCost
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestRestoreRoundTripFromRecordsOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	m := NewManager(lineNet(t, 2), core.Options{}).AttachWAL(l)
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	s1, err := m.Admit(task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(task); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(s1.ID); err != nil {
		t.Fatal(err)
	}
	want := stateFingerprint(t, m)
	l.Crash() // SIGKILL: no graceful close, no snapshot

	m2, rep := mustRestore(t, dir, lineNet(t, 2))
	if rep.SessionsRecovered != 1 || rep.ReplayedRecords != 3 {
		t.Fatalf("report: %+v", rep)
	}
	if got := stateFingerprint(t, m2); got != want {
		t.Fatalf("restored state diverged:\n got %s\nwant %s", got, want)
	}
	// The restored network carries the surviving instance.
	if m2.LiveInstances() != 1 || rep.RefsDeployed != 1 {
		t.Fatalf("instances=%d deployed=%d", m2.LiveInstances(), rep.RefsDeployed)
	}
}

// TestWALAppendHistogram holds wal_append_ms to one sample per record
// that reached the log: an instrumented durable manager times every
// successful append, and a refused one leaves no sample.
func TestWALAppendHistogram(t *testing.T) {
	l, _ := openWAL(t, t.TempDir())
	reg := obs.NewRegistry()
	m := NewManager(lineNet(t, 2), core.Options{}).AttachWAL(l).Instrument(reg)
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	s1, err := m.Admit(task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Admit(task); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(s1.ID); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if _, err := m.Admit(task); !errors.Is(err, ErrWAL) {
		t.Fatalf("admit on a crashed log: %v", err)
	}
	records := reg.Snapshot().Counters["wal_records_total"]
	if got := reg.Histogram("wal_append_ms", obs.LatencyBuckets).Count(); got != records || records != 3 {
		t.Fatalf("wal_append_ms holds %d samples for %d records, want 3 and 3", got, records)
	}
}

func TestRestoreFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	m := NewManager(lineNet(t, 4), core.Options{}).AttachWAL(l)
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	for i := 0; i < 3; i++ {
		if _, err := m.Admit(task); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if seq != 3 {
		t.Fatalf("checkpoint folded seq %d, want 3", seq)
	}
	// Post-snapshot tail: one more admit, one release.
	s4, err := m.Admit(task)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(s4.ID); err != nil {
		t.Fatal(err)
	}
	want := stateFingerprint(t, m)
	st := m.Stats()
	if st.Snapshots != 1 || st.WALRecords != 5 || st.LastSnapshotSeq != 3 {
		t.Fatalf("durability stats: %+v", st)
	}
	l.Crash()

	m2, rep := mustRestore(t, dir, lineNet(t, 4))
	if rep.SnapshotSeq != 3 || rep.ReplayedRecords != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if got := stateFingerprint(t, m2); got != want {
		t.Fatalf("restored state diverged:\n got %s\nwant %s", got, want)
	}
	// Accounting history survives compaction.
	if st2 := m2.Stats(); st2.Admitted != 4 || st2.AdmittedCost != st.AdmittedCost {
		t.Fatalf("restored stats: %+v want admitted=4 cost=%v", st2, st.AdmittedCost)
	}
}

func TestMidCommitCrashKeepsDurableSession(t *testing.T) {
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	m := NewManager(lineNet(t, 2), core.Options{}).AttachWAL(l)
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}

	type crashSentinel struct{}
	m.SetCrashHook(func(point string) {
		if point == "admit:post-wal" {
			l.Crash()
			panic(crashSentinel{})
		}
	})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("crash hook never fired")
			} else if _, ok := r.(crashSentinel); !ok {
				panic(r)
			}
		}()
		m.Admit(task)
	}()

	// The record hit the fsynced log before the crash, so the session
	// is committed: restore must surface it even though the in-memory
	// manager never finished the commit.
	m2, rep := mustRestore(t, dir, lineNet(t, 2))
	if m2.Active() != 1 || rep.SessionsRecovered != 1 {
		t.Fatalf("durable session lost: active=%d report=%+v", m2.Active(), rep)
	}
	if st := m2.Stats(); st.Admitted != 1 {
		t.Fatalf("restored accounting: %+v", st)
	}
}

func TestPreWALCrashCommitsNothing(t *testing.T) {
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	m := NewManager(lineNet(t, 2), core.Options{}).AttachWAL(l)
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	// Crash the log before the admission: the WAL append fails, so the
	// commit must reject and leave no trace on either side.
	l.Crash()
	if _, err := m.Admit(task); err == nil {
		t.Fatal("admission succeeded without durability")
	}
	if m.Active() != 0 || m.LiveInstances() != 0 {
		t.Fatalf("rejected admission leaked state: active=%d instances=%d", m.Active(), m.LiveInstances())
	}
	m2, rep := mustRestore(t, dir, lineNet(t, 2))
	if m2.Active() != 0 || rep.SessionsRecovered != 0 {
		t.Fatalf("phantom session after pre-WAL crash: %+v", rep)
	}
}

func TestRestoreReplaysRepairHistory(t *testing.T) {
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{}).AttachWAL(l)
	task := nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}}
	if _, err := m.Admit(task); err != nil {
		t.Fatal(err)
	}
	// Cut 1-4: destination 4 reroutes over the expensive 0-4 edge via a
	// patch repair, logged as rebase + repair records.
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.LinkDown, U: 1, V: 4})
	if rep.Affected != 1 {
		t.Fatalf("repair fixture: %+v", rep)
	}
	want := stateFingerprint(t, m)
	l.Crash()

	// Restore onto the same degraded topology, rebuilt fresh.
	st := faults.NewState(repairNet(t, 2))
	if err := st.Apply(faults.Event{Kind: faults.LinkDown, U: 1, V: 4}); err != nil {
		t.Fatal(err)
	}
	degraded, err := st.Materialize(repairNet(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	m2, rrep := mustRestore(t, dir, degraded)
	if got := stateFingerprint(t, m2); got != want {
		t.Fatalf("repaired state diverged:\n got %s\nwant %s", got, want)
	}
	// The restore's own repair pass found nothing left to fix.
	if rrep.SessionsPatched != 0 || rrep.SessionsReembeded != 0 || rrep.SessionsDegraded != 0 {
		t.Fatalf("restore re-repaired a clean state: %+v", rrep)
	}
}

func TestRestoreOntoShrunkenTopologyDegrades(t *testing.T) {
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{}).AttachWAL(l)
	task := nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}}
	if _, err := m.Admit(task); err != nil {
		t.Fatal(err)
	}
	l.Crash()

	// Node 1 — the only server, hosting the session's instance — is
	// gone in the restored topology. Restore must not fail: the
	// reference is unplaceable and the session degrades through the
	// ordinary ladder.
	st := faults.NewState(repairNet(t, 2))
	if err := st.Apply(faults.Event{Kind: faults.NodeDown, Node: 1}); err != nil {
		t.Fatal(err)
	}
	degraded, err := st.Materialize(repairNet(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	l2, rec := openWAL(t, dir)
	m2, rrep, err := Restore(degraded, l2, rec, core.Options{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(rrep.Errors) != 0 {
		t.Fatalf("cross-check errors on a degraded restore: %v", rrep.Errors)
	}
	if rrep.RefsUnplaceable != 1 || rrep.SessionsDegraded != 1 {
		t.Fatalf("report: %+v", rrep)
	}
	sessions := m2.Sessions()
	if len(sessions) != 1 || !sessions[0].Degraded {
		t.Fatalf("session not degraded: %+v", sessions)
	}
	if err := m2.VerifyRefs(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWaitsForInflight: Drain returns at once on an idle manager,
// honors its deadline on a busy one, and counts an admission as in
// flight from the start of its first half until it has settled — also
// while it sits solved and uncommitted between the two, where the
// admission queue keeps a ticket waiting for its turn.
func TestDrainWaitsForInflight(t *testing.T) {
	m := NewManager(lineNet(t, 2), core.Options{})
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	a := m.Solve(context.Background(), nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Drain(ctx); err == nil {
		t.Fatal("drain ignored an expired context with inflight work")
	}
	drained := make(chan int, 1)
	go func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		drained <- m.Stats().Admitted
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // every chance for a Drain that does not wait to return
	}
	select {
	case <-drained:
		t.Fatal("drain returned over a solved, unsettled admission")
	default:
	}
	if _, err := a.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := <-drained; got != 1 {
		t.Fatalf("drain returned with %d admissions committed, want 1", got)
	}
}

func TestCheckpointWithoutWAL(t *testing.T) {
	m := NewManager(lineNet(t, 2), core.Options{})
	if _, err := m.Checkpoint(); err != ErrNoWAL {
		t.Fatalf("Checkpoint without WAL: %v", err)
	}
}

// TestRefMismatchesReported: a ledger that disagrees with the sessions'
// usage lists is reported by VerifyRefs and by Restore's cross-check,
// which both read it through refMismatches.
func TestRefMismatchesReported(t *testing.T) {
	m := NewManager(lineNet(t, 2), core.Options{})
	if _, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}); err != nil {
		t.Fatal(err)
	}
	if len(m.refs) == 0 {
		t.Fatal("fixture session deployed nothing")
	}
	var key [2]int
	for k := range m.refs {
		key = k
	}
	for _, tc := range []struct {
		want    string
		corrupt func()
	}{
		{"refcount mismatch", func() { m.refs[key]++ }},
		{"refcount ledger has", func() { m.refs[[2]int{key[0], key[1] + 1}] = 1 }},
	} {
		tc.corrupt()
		if err := m.VerifyRefs(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("VerifyRefs = %v, want an error containing %q", err, tc.want)
		}
		var rep RecoverReport
		m.crossCheck(&rep)
		if !slices.ContainsFunc(rep.Errors, func(e string) bool { return strings.Contains(e, tc.want) }) {
			t.Errorf("crossCheck errors = %q, want one containing %q", rep.Errors, tc.want)
		}
	}
}

// deployedCount counts every installed instance on the network.
func deployedCount(net *nfv.Network) int {
	n := 0
	for f := 0; f < net.CatalogSize(); f++ {
		for v := 0; v < net.NumNodes(); v++ {
			if net.IsDeployed(f, v) {
				n++
			}
		}
	}
	return n
}

// TestClosedLogFailsTyped closes the log under a live manager — a dead
// disk. Admissions and releases must fail as ErrWAL with the cause
// wrapped, not as a capacity rejection; nothing may change, the fresh
// deploys must be rolled back, and reads must keep working.
func TestClosedLogFailsTyped(t *testing.T) {
	l, _ := openWAL(t, t.TempDir())
	net := lineNet(t, 2)
	m := NewManager(net, core.Options{}).AttachWAL(l)
	held, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}
	before, deployed := stateFingerprint(t, m), deployedCount(net)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Chain {1} needs a fresh install, so the commit gets as far as
	// deploying before the append fails.
	_, err = m.Admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{1}})
	if !errors.Is(err, ErrWAL) || !errors.Is(err, wal.ErrClosed) || errors.Is(err, ErrRejected) {
		t.Fatalf("admit on a closed log: %v", err)
	}
	err = m.Release(held.ID)
	if !errors.Is(err, ErrWAL) || !errors.Is(err, wal.ErrClosed) || errors.Is(err, ErrUnknownSession) {
		t.Fatalf("release on a closed log: %v", err)
	}

	if got := stateFingerprint(t, m); got != before {
		t.Fatalf("failed commits changed the ledger:\n got %s\nwant %s", got, before)
	}
	if m.Active() != 1 || m.LiveInstances() != 1 || len(m.Sessions()) != 1 {
		t.Fatalf("active=%d instances=%d", m.Active(), m.LiveInstances())
	}
	if got := deployedCount(net); got != deployed {
		t.Fatalf("%d instances deployed, want %d: the refused admission's install leaked", got, deployed)
	}
	if err := m.VerifyRefs(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Rejected != 0 || st.WALAppendErrors != 2 || st.Admitted != 1 {
		t.Fatalf("stats %+v: want no rejection, two append errors", st)
	}
}
