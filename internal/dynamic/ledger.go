// The session ledger: which sessions are live, which dynamic instances
// they reference and how often, and the admission accounting. This
// file holds its only writers. Every state change — admit, release,
// rebase purge, repair outcome — is a wal.Record, and apply is the one
// function that turns a record into ledger state: the live paths call
// it right after appending the record, Restore calls it in a loop over
// the records read back from disk, so replay cannot disagree with what
// the live manager did.
package dynamic

import (
	"fmt"

	"sftree/internal/core"
	"sftree/internal/wal"
)

// applied is what apply hands back to a live caller.
type applied struct {
	// sess is the session the record created (admit), changed (repair)
	// or removed (release); nil for a rebase.
	sess *Session
	// orphans lists the instances whose reference count reached zero,
	// in the order they were dropped. The live caller undeploys them;
	// Restore ignores them and re-derives the deployment state from the
	// final ledger instead.
	orphans [][2]int
}

// apply folds one lifecycle record into the ledger. It is the only
// writer of m.sessions, m.refs, m.nextID, the admitted accounting,
// each session's uses, Degraded and Lost, and m.degraded with them. It
// never reads or touches the network, takes no decision the record
// does not carry, and on an error has changed nothing. Callers hold
// m.mu.
func (m *Manager) apply(r *wal.Record) (applied, error) {
	var out applied
	switch r.Type {
	case wal.RecAdmit:
		id := SessionID(r.Session)
		if _, dup := m.sessions[id]; dup {
			return out, fmt.Errorf("duplicate admit for session %d", id)
		}
		if r.Embedding == nil {
			return out, fmt.Errorf("admit record for session %d without embedding", id)
		}
		out.sess = &Session{
			ID:     id,
			Task:   r.Embedding.Task.CloneTask(),
			Result: &core.Result{Embedding: r.Embedding, FinalCost: r.FinalCost},
			uses:   r.Uses,
		}
		m.sessions[id] = out.sess
		for _, k := range r.Uses {
			m.refs[k]++
		}
		if id >= m.nextID {
			m.nextID = id + 1
		}
		m.admitted++
		m.admittedCost += r.FinalCost

	case wal.RecRelease:
		sess, ok := m.sessions[SessionID(r.Session)]
		if !ok {
			return out, fmt.Errorf("release of unknown session %d", r.Session)
		}
		delete(m.sessions, sess.ID)
		if sess.Degraded {
			m.degraded--
		}
		out.sess = sess
		for _, k := range sess.uses {
			if m.unref(k) {
				out.orphans = append(out.orphans, k)
			}
		}

	case wal.RecRebase:
		for _, k := range r.Purged {
			delete(m.refs, k)
		}
		for _, sess := range m.sessions {
			kept := sess.uses[:0]
			for _, k := range sess.uses {
				if _, ok := m.refs[k]; ok {
					kept = append(kept, k)
				}
			}
			if len(kept) == 0 {
				kept = nil // what a snapshot round trip yields
			}
			sess.uses = kept
		}

	case wal.RecRepair:
		sess, ok := m.sessions[SessionID(r.Session)]
		if !ok {
			return out, fmt.Errorf("repair of unknown session %d", r.Session)
		}
		if r.Embedding == nil {
			return out, fmt.Errorf("repair record for session %d without embedding", r.Session)
		}
		// Refcount diff: newly referenced keys gain a reference, dropped
		// ones lose theirs.
		before, after := getKeySet(), getKeySet()
		for _, k := range sess.uses {
			before.add(k)
		}
		for _, k := range r.Uses {
			if after.add(k) && !before.has(k) {
				m.refs[k]++
			}
		}
		for _, k := range sess.uses {
			if !after.has(k) && m.unref(k) {
				out.orphans = append(out.orphans, k)
			}
		}
		putKeySet(before)
		putKeySet(after)
		out.sess = sess
		sess.uses = r.Uses
		sess.Result.Embedding = r.Embedding
		sess.Result.FinalCost = r.FinalCost
		if sess.Degraded {
			m.degraded--
		}
		if r.Degraded {
			m.degraded++
		}
		sess.Degraded = r.Degraded
		sess.Lost = r.Lost

	default:
		return out, fmt.Errorf("unknown record type %q", r.Type)
	}
	return out, nil
}

// unref drops one reference to k and reports whether that orphaned the
// instance. A key the ledger does not hold died in a fault and was
// purged by a rebase: decrementing it would mint a phantom negative
// entry, and undeploying it would fail.
func (m *Manager) unref(k [2]int) (orphaned bool) {
	n, ok := m.refs[k]
	if !ok {
		return false
	}
	if n > 1 {
		m.refs[k] = n - 1
		return false
	}
	delete(m.refs, k)
	return true
}

// loadSnapshotState applies a snapshot document to a fresh manager.
func (m *Manager) loadSnapshotState(snap *wal.Snapshot) error {
	for i := range snap.Sessions {
		ss := &snap.Sessions[i]
		if ss.Embedding == nil {
			return fmt.Errorf("dynamic: restore: snapshot session %d without embedding", ss.ID)
		}
		id := SessionID(ss.ID)
		if _, dup := m.sessions[id]; dup {
			return fmt.Errorf("dynamic: restore: duplicate snapshot session %d", ss.ID)
		}
		m.sessions[id] = &Session{
			ID:       id,
			Task:     ss.Embedding.Task.CloneTask(),
			Result:   &core.Result{Embedding: ss.Embedding, FinalCost: ss.FinalCost},
			Degraded: ss.Degraded,
			Lost:     ss.Lost,
			uses:     ss.Uses,
		}
		if ss.Degraded {
			m.degraded++
		}
	}
	for _, rc := range snap.Refs {
		if rc.Count <= 0 {
			return fmt.Errorf("dynamic: restore: non-positive refcount %d for vnf=%d node=%d",
				rc.Count, rc.VNF, rc.Node)
		}
		m.refs[[2]int{rc.VNF, rc.Node}] = rc.Count
	}
	m.nextID = SessionID(snap.NextID)
	m.admitted = snap.Counters.Admitted
	m.rejected = snap.Counters.Rejected
	m.admittedCost = snap.Counters.AdmittedCost
	m.commitConflicts = snap.Counters.CommitConflicts
	m.admitRetries = snap.Counters.AdmitRetries
	m.serializedFallbacks = snap.Counters.SerializedFallbacks
	return nil
}
