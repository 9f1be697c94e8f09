// Durable admission state: the manager's WAL integration. Every
// state-changing operation (admit commit, release, rebase purge,
// repair outcome) is decided first, written as one lifecycle record,
// appended to the attached write-ahead log and only then folded into
// the in-memory ledger by apply (ledger.go), all inside one critical
// section, so the durable history and the live state can never
// disagree about what was committed. Restore rebuilds a manager from
// the newest snapshot plus the WAL tail by running the same apply over
// the records, re-derives the deployment state from the resulting
// ledger, and routes sessions the restored topology can no longer
// satisfy through the ordinary Rebase repair ladder instead of failing
// the restore.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/nfv"
	"sftree/internal/wal"
)

// ErrNoWAL reports a durability operation on a manager without an
// attached log.
var ErrNoWAL = errors.New("dynamic: no WAL attached")

// AttachWAL wires a write-ahead log into the manager: from now on
// every commit appends its lifecycle record before mutating state,
// and Checkpoint can persist compacted snapshots. Attach before the
// first admission; it returns the manager for chaining.
func (m *Manager) AttachWAL(w *wal.Log) *Manager {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wal = w
	return m
}

// SetCrashHook installs a test-only hook invoked at named crash
// points inside the commit critical sections — most importantly
// "admit:post-wal", between the WAL append and the in-memory commit.
// The crash-injection harness panics from it to simulate a SIGKILL at
// the worst possible instant.
func (m *Manager) SetCrashHook(fn func(point string)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashHook = fn
}

// crashPoint fires the injected crash hook; callers hold m.mu.
func (m *Manager) crashPoint(point string) {
	if m.crashHook != nil {
		m.crashHook(point)
	}
}

// appendRecord appends one lifecycle record, tracking the durability
// counters; callers hold m.mu. A nil WAL is a no-op.
func (m *Manager) appendRecord(rec *wal.Record) error {
	if m.wal == nil {
		return nil
	}
	var t0 time.Time
	if m.met != nil {
		t0 = time.Now()
	}
	if _, err := m.wal.Append(rec); err != nil {
		m.walAppendErrors++
		return err
	}
	m.walRecords++
	if m.met != nil {
		m.met.walAppendMS.ObserveDuration(time.Since(t0))
	}
	return nil
}

// commitDurable is the second half of an admission or release: the
// operation is decided and rec describes it. The record is appended,
// the named crash point fires, and apply folds the record into the
// ledger. A failed append commits nothing and returns ErrWAL; the
// caller undoes whatever it did to the network. Callers hold m.mu.
func (m *Manager) commitDurable(rec *wal.Record, point string) (applied, error) {
	if err := m.appendRecord(rec); err != nil {
		return applied{}, fmt.Errorf("%w: %w", ErrWAL, err)
	}
	m.crashPoint(point)
	return m.applyLive(rec), nil
}

// commitLagging is commitDurable for rebase and repair records, whose
// outcome is already a fact of the network and cannot be refused: a
// failed append is counted and the record applied regardless. It DOES
// mark the manager checkpoint-dirty — until a snapshot re-captures the
// live state, a crash would restore stale pre-repair sessions, so the
// serving loop must fold one immediately, not on the interval. Callers
// hold m.mu.
func (m *Manager) commitLagging(rec *wal.Record) applied {
	if err := m.appendRecord(rec); err != nil {
		m.checkpointDirty = true
	}
	return m.applyLive(rec)
}

// applyLive applies a record a live path built from state it had just
// read under the lock. Only a bug can make apply refuse such a record.
func (m *Manager) applyLive(rec *wal.Record) applied {
	out, err := m.apply(rec)
	if err != nil {
		panic(fmt.Sprintf("dynamic: live %s record refused: %v", rec.Type, err))
	}
	return out
}

// usesCopy clones a usage list for a snapshot, so the document never
// aliases the session's live slice.
func usesCopy(uses [][2]int) [][2]int {
	if len(uses) == 0 {
		return nil
	}
	return append([][2]int(nil), uses...)
}

// NeedsCheckpoint reports that a WAL append failure left the durable
// history behind the live state. The serving loop polls it and calls
// Checkpoint immediately instead of waiting out the snapshot
// interval, shrinking the window in which a crash restores stale
// pre-repair state.
func (m *Manager) NeedsCheckpoint() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointDirty
}

// sortKeys orders (vnf, node) pairs lexicographically, making records
// and snapshots byte-deterministic for a given state.
func sortKeys(keys [][2]int) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
}

// Drain blocks until every in-flight admission and release has
// finished committing (or the context expires). Graceful shutdown
// calls it between "stop accepting requests" and "write the final
// snapshot", so the snapshot can never miss a commit that was already
// past its WAL append.
func (m *Manager) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Checkpoint writes a compacted snapshot of the full manager state
// through the attached WAL (sessions, refcount ledger, counters,
// network version), rotating the log so replay after the next crash
// starts here. It returns the snapshot's folded sequence number.
func (m *Manager) Checkpoint() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return 0, ErrNoWAL
	}
	snap := &wal.Snapshot{
		NextID: int64(m.nextID),
		Counters: wal.Counters{
			Admitted:            m.admitted,
			Rejected:            m.rejected,
			AdmittedCost:        m.admittedCost,
			CommitConflicts:     m.commitConflicts,
			AdmitRetries:        m.commitConflicts,
			SerializedFallbacks: m.serializedFallbacks,
		},
		Gen:         m.net.Graph().Generation(),
		Epoch:       m.net.DeployEpoch(),
		Incarnation: m.net.IncarnationID(),
	}
	ids := make([]SessionID, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sess := m.sessions[id]
		snap.Sessions = append(snap.Sessions, wal.SessionState{
			ID:        int64(sess.ID),
			Embedding: sess.Result.Embedding,
			FinalCost: sess.Result.FinalCost,
			Degraded:  sess.Degraded,
			Lost:      append([]int(nil), sess.Lost...),
			Uses:      usesCopy(sess.uses),
		})
	}
	keys := make([][2]int, 0, len(m.refs))
	for k := range m.refs {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		snap.Refs = append(snap.Refs, wal.RefCount{VNF: k[0], Node: k[1], Count: m.refs[k]})
	}
	if err := m.wal.WriteSnapshot(snap); err != nil {
		return 0, err
	}
	m.snapshots++
	m.lastSnapshotSeq = snap.Seq
	// The snapshot captured the live state, so any divergence from
	// earlier swallowed repair/rebase append failures is healed.
	m.checkpointDirty = false
	return snap.Seq, nil
}

// RecoverReport describes one Restore: what was loaded, what had to
// be repaired, and whether the restored state passed the conformance
// cross-checks.
type RecoverReport struct {
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	ReplayedRecords int    `json:"replayed_records"`
	// TornTail reports that the log ended in a partial record from the
	// crash — tolerated and discarded.
	TornTail bool `json:"torn_tail,omitempty"`
	// SessionsRecovered counts live sessions rebuilt from disk (before
	// the repair pass).
	SessionsRecovered int `json:"sessions_recovered"`
	// RefsDeployed counts dynamic instances re-installed onto the
	// restored network; RefsUnplaceable ones the topology no longer
	// admits (dead node, shrunk capacity) — the repair pass purges them
	// (they count in PurgedInstances too) and their sessions go through
	// the repair ladder.
	RefsDeployed    int `json:"refs_deployed"`
	RefsUnplaceable int `json:"refs_unplaceable,omitempty"`
	// Repair-ladder outcomes for sessions the restored topology could
	// not serve as recorded.
	SessionsPatched   int `json:"sessions_patched,omitempty"`
	SessionsReembeded int `json:"sessions_reembedded,omitempty"`
	SessionsDegraded  int `json:"sessions_degraded,omitempty"`
	PurgedInstances   int `json:"purged_instances,omitempty"`
	// Errors lists conformance cross-check failures of the final
	// restored state: CheckLive/Recount violations or a refcount
	// ledger that disagrees with the sessions' usage lists. Empty on a
	// healthy restore — the crash gate asserts exactly that.
	Errors []string `json:"errors,omitempty"`
	// ReplayDuration covers snapshot load application, record replay,
	// re-deployment and the repair pass.
	ReplayDuration time.Duration `json:"replay_duration_ns"`
}

// Restore rebuilds a manager from the recovery a wal.Open returned:
// it loads the snapshot state, replays the WAL tail through apply —
// the function the live admit, release, rebase and repair paths commit
// through — re-installs every reference-counted instance onto net,
// runs the Rebase repair ladder
// for anything the restored topology no longer satisfies, and
// cross-checks the result with conformance.CheckLive/Recount plus an
// independent refcount re-derivation. The returned manager owns net
// and continues logging to w.
//
// Restore never fails because the topology changed — affected
// sessions are repaired or degraded, exactly as a live fault would be
// handled — but it does fail on an undecodable or inconsistent log,
// because silently dropping committed state is worse than refusing to
// start.
func Restore(net *nfv.Network, w *wal.Log, rec *wal.Recovery, opts core.Options) (*Manager, *RecoverReport, error) {
	start := time.Now()
	m := NewManager(net, opts)
	rep := &RecoverReport{TornTail: rec != nil && rec.TornTail}

	if rec != nil && rec.Snapshot != nil {
		rep.SnapshotSeq = rec.Snapshot.Seq
		if err := m.loadSnapshotState(rec.Snapshot); err != nil {
			return nil, nil, err
		}
	}
	if rec != nil {
		// The orphans apply reports are ignored: nothing is deployed yet.
		for i := range rec.Records {
			if _, err := m.apply(&rec.Records[i]); err != nil {
				return nil, nil, fmt.Errorf("dynamic: restore: replay seq %d: %w", rec.Records[i].Seq, err)
			}
		}
		rep.ReplayedRecords = len(rec.Records)
	}

	// Re-derive the deployment state: the refcount ledger's keys are
	// exactly the dynamically deployed instances. Anything the restored
	// topology refuses (dead node, vanished server, shrunk capacity) is
	// a fault kill like any other: it stays undeployed, so the Rebase
	// below purges the reference — durably, in its rebase record — and
	// re-embeds or degrades the sessions leaning on it.
	keys := make([][2]int, 0, len(m.refs))
	for k := range m.refs {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		if net.IsDeployed(k[0], k[1]) {
			continue
		}
		if err := net.Deploy(k[0], k[1]); err != nil {
			rep.RefsUnplaceable++
			continue
		}
		rep.RefsDeployed++
	}
	rep.SessionsRecovered = len(m.sessions)

	// Attach the log before the repair pass so recovery decisions are
	// themselves durable (a crash during recovery replays them).
	m.wal = w

	// Repair pass: the ordinary Rebase ladder against the restored
	// network. On an unchanged topology every session checks out intact
	// and this is a no-op beyond the version bump.
	rr := m.Rebase(net)
	rep.SessionsPatched = rr.Patched
	rep.SessionsReembeded = rr.Reembeds
	rep.SessionsDegraded = rr.Degraded
	rep.PurgedInstances = rr.PurgedInstances

	m.crossCheck(rep)
	rep.ReplayDuration = time.Since(start)
	return m, rep, nil
}

// crossCheck validates the restored state: every non-degraded session
// must hold a live-valid embedding whose cost the independent
// validator can re-derive, and the refcount ledger must equal the
// re-derivation from the sessions' own usage lists.
func (m *Manager) crossCheck(rep *RecoverReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]SessionID, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sess := m.sessions[id]
		if sess.Degraded {
			continue
		}
		if err := conformance.CheckLive(m.net, sess.Result.Embedding); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("session %d: validate: %v", id, err))
			continue
		}
		if _, err := recountLive(m.net, sess.Result.Embedding); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("session %d: recount: %v", id, err))
		}
	}
	rep.Errors = append(rep.Errors, m.refMismatches()...)
}

// recountLive re-derives a live embedding's cost breakdown: like
// conformance.Recount, but against a scratch network with the
// embedding's own installed instances undeployed (the same trick
// CheckLive plays), so the recount prices them instead of rejecting
// them as shadowed.
func recountLive(net *nfv.Network, e *nfv.Embedding) (conformance.Breakdown, error) {
	scratch := net
	for _, inst := range e.NewInstances {
		if inst.VNF < 0 || inst.VNF >= net.CatalogSize() ||
			inst.Node < 0 || inst.Node >= net.NumNodes() {
			continue // out of range; Recount reports it as a typed error
		}
		if net.IsDeployed(inst.VNF, inst.Node) {
			if scratch == net {
				scratch = net.Clone()
			}
			if err := scratch.Undeploy(inst.VNF, inst.Node); err != nil {
				return conformance.Breakdown{}, err
			}
		}
	}
	return conformance.Recount(scratch, e)
}

// VerifyRefs re-derives the refcount ledger from the live sessions'
// usage lists and reports the first disagreement; nil means the
// ledger conserves references exactly. Harnesses call it after crash
// recovery and chaos runs.
func (m *Manager) VerifyRefs() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if errs := m.refMismatches(); len(errs) > 0 {
		return errors.New("dynamic: " + errs[0])
	}
	return nil
}

// refMismatches re-derives the refcount ledger from the live sessions'
// usage lists and describes every way the ledger disagrees with it;
// callers hold m.mu.
func (m *Manager) refMismatches() []string {
	derived := make(map[[2]int]int, len(m.refs))
	for _, sess := range m.sessions {
		for _, k := range sess.uses {
			derived[k]++
		}
	}
	var errs []string
	if len(derived) != len(m.refs) {
		errs = append(errs, fmt.Sprintf(
			"refcount ledger has %d instances, sessions reference %d", len(m.refs), len(derived)))
	}
	for k, want := range derived {
		if got := m.refs[k]; got != want {
			errs = append(errs, fmt.Sprintf(
				"refcount mismatch for vnf=%d node=%d: ledger %d, derived %d", k[0], k[1], got, want))
		}
	}
	return errs
}
