package dynamic

import (
	"context"
	"time"

	"sftree/internal/nfv"
)

// BatchTask is one admission request inside an AdmitBatch call.
type BatchTask struct {
	Task nfv.Task
	// Deadline, when non-zero, bounds this task's solve: the solver
	// returns its best feasible embedding so far at the deadline
	// (anytime semantics, Result.EarlyStop set) exactly as a
	// context-bounded AdmitCtx would.
	Deadline time.Time
	// Ctx, when non-nil, is the per-task base context — it carries the
	// originating request ID into the admission trace and lets the
	// caller cancel an individual task. Defaults to the batch context.
	Ctx context.Context
}

// BatchOutcome is one task's admission result. Exactly one outcome is
// delivered per BatchTask, in input order.
type BatchOutcome struct {
	Sess *Session
	Err  error
	// Coalesced marks an admission whose committed solve reused the
	// previous task's snapshot instead of paying a fresh clone and
	// metric warm-up.
	Coalesced bool
	// Retries is the number of conflict-forced re-solves (0 on the
	// contention-free path).
	Retries int
	// Duration is this task's own solve-and-commit time inside the
	// batch, so callers can split queue wait from solve time.
	Duration time.Duration
}

// AdmitBatch admits the tasks strictly in input order through the same
// optimistic two-phase protocol as AdmitCtx, threading one snapshot
// through the run: after a task commits without conflict, the next
// task reuses its snapshot as long as the network version (parent
// pointer, graph generation, deployment epoch) has not moved — which
// holds exactly when the committed embedding reused live instances
// without deploying or undeploying anything. A signature-grouped batch
// in the steady reuse-heavy state therefore pays one clone, one metric
// warm-up and one scaffold build for the whole group, while any
// version bump (fresh deploy, concurrent release, rebase) falls back
// to a fresh snapshot for the next task.
//
// Each outcome is bit-identical to what a serialized AdmitCtx sequence
// in the same order would produce: snapshot reuse is gated on the same
// version triple tryCommit validates, so a reused snapshot is
// indistinguishable from one taken fresh.
//
// done receives task i's outcome the moment its commit (or rejection)
// is final, on the calling goroutine and before task i+1 starts, so a
// caller can answer each task without waiting for the rest of the
// batch.
func (m *Manager) AdmitBatch(ctx context.Context, tasks []BatchTask, done func(i int, out BatchOutcome)) {
	m.inflight.Add(1)
	defer m.inflight.Done()
	var reuse *snapshot
	for i, bt := range tasks {
		base := bt.Ctx
		if base == nil {
			base = ctx
		}
		taskCtx, cancel := base, context.CancelFunc(nil)
		if !bt.Deadline.IsZero() {
			taskCtx, cancel = context.WithDeadline(base, bt.Deadline)
		}
		if reuse != nil && !m.snapshotCurrent(reuse) {
			reuse = nil
		}
		start := time.Now()
		out := m.admitLoop(taskCtx, bt.Task, reuse)
		m.finishAdmit(out.tracing, out.rec, taskCtx, out.par, out.retries, out.sess, out.res, out.err, start)
		if cancel != nil {
			cancel()
		}
		if out.coalesced && out.err == nil {
			m.noteCoalesced()
		}
		done(i, BatchOutcome{
			Sess:      out.sess,
			Err:       out.err,
			Coalesced: out.coalesced,
			Retries:   out.retries,
			Duration:  time.Since(start),
		})
		reuse = nil
		if out.snapValid {
			reuse = &out.snap
		}
	}
}

// CloneNetwork takes a consistent deep clone of the managed network
// under the manager lock — the safe way for an external observer (a
// fault injector, the chaos harness) to read deployment state while
// admissions commit concurrently. Network() by contrast hands back the
// live object and is only safe when nothing is in flight.
func (m *Manager) CloneNetwork() *nfv.Network {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.net.Clone()
}

// snapshotCurrent reports whether the snapshot still describes the
// live network exactly — same network object, same graph generation,
// same deployment epoch. Under this predicate the clone's deployment
// state and metrics are bit-identical to the live network's, so a
// solve against it equals a solve against a fresh snapshot.
func (m *Manager) snapshotCurrent(snap *snapshot) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.net == snap.parent &&
		m.net.Graph().Generation() == snap.gen &&
		m.net.DeployEpoch() == snap.epoch
}

// noteCoalesced counts one admission that committed off a reused batch
// snapshot.
func (m *Manager) noteCoalesced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coalescedSolves++
	if m.met != nil {
		m.met.coalescedSolves.Inc()
	}
}
