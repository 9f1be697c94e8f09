// Package dynamic manages the lifecycle of many multicast sessions
// over one shared network — the dynamic service-chaining setting the
// paper's related work (§II, [13][24]) points at. Every admitted
// session runs the two-stage SFT embedding against the network's
// *current* deployment state, so instances installed for earlier
// sessions are reused at zero setup cost; capacity consumed by live
// instances blocks later over-subscription; and departing sessions
// release their instances once the last subscriber leaves
// (reference-counted ownership).
//
// Admissions follow an optimistic two-phase protocol: the expensive
// solve runs lock-free against an immutable snapshot of the network,
// and only a short validate-and-commit step serializes on the
// manager's mutex. The commit re-checks exactly the deployment state
// the embedding touches, so concurrent admissions over disjoint
// instances commit without re-solving; genuinely conflicting ones
// retry a bounded number of times and then run the same attempt once
// more with the lock held throughout, which guarantees progress. A
// single client (no concurrency) always commits its first attempt
// against an unchanged snapshot, making results bit-identical to the
// fully serialized path.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sftree/internal/core"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

var (
	// ErrRejected reports an arrival the network could not host.
	ErrRejected = errors.New("dynamic: session rejected")
	// ErrUnknownSession reports a release for an unknown session ID.
	ErrUnknownSession = errors.New("dynamic: unknown session")
	// ErrWAL reports an admission or release the attached write-ahead
	// log refused to record (cause wrapped). Nothing was committed: the
	// manager is as it was before the call. It is a durability fault,
	// not a capacity verdict, and is never an ErrRejected.
	ErrWAL = errors.New("dynamic: wal append failed")
)

// maxAdmitRetries bounds how many times an admission re-solves after a
// commit conflict before its next attempt holds the lock from snapshot
// to commit. That attempt serializes with every other commit, so
// admission latency stays bounded even under pathological contention.
const maxAdmitRetries = 3

// SessionID identifies an admitted session.
type SessionID int

// Session is one live multicast task and its embedding.
type Session struct {
	ID   SessionID
	Task nfv.Task
	// Result is the solver outcome at admission time; after a fault
	// repair its Embedding and FinalCost reflect the repaired state.
	Result *core.Result
	// Degraded marks a session that a fault repair could not restore
	// in full: it serves only the destinations its embedding still
	// reaches (possibly none), and Lost lists the dropped ones.
	Degraded bool
	// Lost lists destination node IDs no longer served (unreachable or
	// unrepairable after a fault). Empty for healthy sessions.
	Lost []int
	// Coalesced reports that the solve this session committed from ran
	// against a snapshot an earlier admission had already taken (see
	// takeSnapshot) rather than a fresh clone. Set once at commit.
	Coalesced bool
	// uses lists the (vnf, node) instances this session's flows
	// traverse, including ones inherited from earlier sessions.
	uses [][2]int
}

// Manager admits and releases sessions over a shared network. All
// methods are safe for concurrent use. Admissions solve against a
// read snapshot outside the lock and serialize only on a short
// validate-and-commit step; Release, Rebase and the query methods
// serialize on the same mutex.
type Manager struct {
	mu   sync.Mutex
	net  *nfv.Network
	opts core.Options

	// scaffolds memoizes stage-one MOD overlays across admissions with
	// the same (source, chain) at the same deployment, including one the
	// network returns to after sessions are released. Overlays are only
	// ever built against immutable snapshot clones (never the live,
	// mutating network), so a cached overlay can be shared by every
	// solver at that deployment.
	scaffolds *mod.Cache
	// snap is the newest admission snapshot, handed out again for as
	// long as it still equals the live network (see takeSnapshot);
	// snapClaimed says an admission has had its turn on it.
	snap        snapshot
	snapClaimed bool

	nextID   SessionID
	sessions map[SessionID]*Session
	// degraded counts the sessions with Degraded set, kept by the ledger
	// writers so that no commit walks m.sessions for it.
	degraded int
	// refs counts live sessions per dynamically deployed instance.
	// Instances pre-deployed at construction time are permanent and
	// never appear here.
	refs map[[2]int]int

	// The manager's history, the one book Stats and /metrics read.
	admitted, rejected int
	admittedCost       float64
	// Optimistic-concurrency history: commit attempts invalidated by a
	// concurrent commit — each forces one solve rerun, so it is also
	// the retry count — and admissions that exhausted their retries and
	// ran serialized.
	commitConflicts     int
	serializedFallbacks int
	// coalescedSolves counts admissions that committed off a reused
	// snapshot (see takeSnapshot).
	coalescedSolves int

	// met holds the optional registry handles of the figures no other
	// field keeps (see Instrument).
	met *managerMetrics
	// trace, when set, receives one obs.Trace per admission and repair
	// solve (see Trace).
	trace *obs.TraceBuffer

	// wal, when attached, receives one lifecycle record per commit —
	// appended inside the critical section, before apply folds the same
	// record into the in-memory ledger, so the durable history can never
	// lag a committed operation (see AttachWAL, Checkpoint, Restore in
	// durable.go).
	wal *wal.Log
	// crashHook, when set, fires at named crash points inside the
	// commit critical sections (test-only; see SetCrashHook).
	crashHook func(point string)
	// inflight counts admissions and releases between entry and commit
	// completion, so Drain can wait for a quiescent state before the
	// shutdown snapshot.
	inflight sync.WaitGroup

	// Durability history: records appended, append failures, snapshots
	// written, and the sequence the newest snapshot folded.
	walRecords      int
	walAppendErrors int
	snapshots       int
	lastSnapshotSeq uint64
	// checkpointDirty marks a swallowed repair/rebase append failure:
	// the durable history trails the live state until the next
	// snapshot (see NeedsCheckpoint).
	checkpointDirty bool
}

// managerMetrics are the registry handles an instrumented manager
// updates: the release and repair counters, the per-admission solve
// latency and repair cost histograms, and the time one successful WAL
// append — write plus sync — holds m.mu.
type managerMetrics struct {
	released, repairAttempts, repairFailures *obs.Counter
	solveMS, repairCostDelta, walAppendMS    *obs.Histogram
}

// NewManager wraps a network for dynamic session management. The
// network is owned by the manager afterwards: its deployment state
// mutates as sessions come and go.
func NewManager(net *nfv.Network, opts core.Options) *Manager {
	// The manager owns its scaffold cache and guarantees it only ever
	// sees immutable snapshots; a caller-supplied cache could be fed
	// the live network elsewhere, so it is deliberately dropped.
	opts.Scaffolds = nil
	return &Manager{
		net:       net,
		opts:      opts,
		scaffolds: mod.NewCache(),
		sessions:  make(map[SessionID]*Session),
		refs:      make(map[[2]int]int),
	}
}

// Network exposes the managed network (read-only use expected).
func (m *Manager) Network() *nfv.Network { return m.net }

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

// Instrument wires the manager into the registry. The figures the
// manager keeps under its lock are read from it at every scrape, so
// they cannot disagree with Stats, and a restored manager reports its
// restored totals and live state from the first scrape: the counters
// sessions_{admitted,rejected}_total, admit_commit_conflicts_total,
// admit_retries_total (the same count: each conflict forces one
// rerun), admit_serialized_fallbacks_total,
// admit_coalesced_solves_total, wal_records_total,
// wal_append_errors_total and snapshots_written_total, and the gauges
// sessions_live, instances_live, sessions_degraded and
// wal_checkpoint_dirty. Handles carry the rest: the
// sessions_released_total, repair_attempts and repair_failures
// counters, the session_solve_ms per-admission latency and
// repair_cost_delta histograms, and wal_append_ms, the write and sync
// of one committed record as the manager sees it, under its lock (what
// tells a slow disk from a slow solve). It returns the manager for
// chaining; an uninstrumented manager pays nothing.
func (m *Manager) Instrument(reg *obs.Registry) *Manager {
	m.mu.Lock()
	m.met = &managerMetrics{
		released:        reg.Counter("sessions_released_total"),
		repairAttempts:  reg.Counter("repair_attempts"),
		repairFailures:  reg.Counter("repair_failures"),
		solveMS:         reg.Histogram("session_solve_ms", obs.LatencyBuckets),
		repairCostDelta: reg.Histogram("repair_cost_delta", nil),
		walAppendMS:     reg.Histogram("wal_append_ms", obs.LatencyBuckets),
	}
	m.mu.Unlock()
	for name, f := range map[string]func() int{
		"sessions_admitted_total":          func() int { return m.admitted },
		"sessions_rejected_total":          func() int { return m.rejected },
		"admit_commit_conflicts_total":     func() int { return m.commitConflicts },
		"admit_retries_total":              func() int { return m.commitConflicts },
		"admit_serialized_fallbacks_total": func() int { return m.serializedFallbacks },
		"admit_coalesced_solves_total":     func() int { return m.coalescedSolves },
		"wal_records_total":                func() int { return m.walRecords },
		"wal_append_errors_total":          func() int { return m.walAppendErrors },
		"snapshots_written_total":          func() int { return m.snapshots },
	} {
		reg.CounterFunc(name, m.locked(f))
	}
	for name, f := range map[string]func() int{
		"sessions_live":        func() int { return len(m.sessions) },
		"instances_live":       func() int { return len(m.refs) },
		"sessions_degraded":    func() int { return m.degraded },
		"wal_checkpoint_dirty": func() int { return boolInt(m.checkpointDirty) },
	} {
		reg.IntGaugeFunc(name, m.locked(f))
	}
	return m
}

// locked turns a read of manager state into a scrape-time reader that
// takes m.mu around it.
func (m *Manager) locked(read func() int) func() int64 {
	return func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(read())
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Trace wires the manager's solver runs into a bounded trace ring:
// every admission and every fault-repair solve records a span tree
// stamped with the originating request ID (taken from the admission
// context's obs middleware value), the warm/cold metric label, the
// early-stop flag, the stage-one parallelism, the commit-conflict
// retry count and — for repairs — the repair-ladder rung. It returns
// the manager for chaining; an untraced manager pays nothing.
func (m *Manager) Trace(buf *obs.TraceBuffer) *Manager {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trace = buf
	return m
}

// snapshot is one admission's read view: an immutable clone of the
// network plus the version triple that decides whether the solve
// computed against it is still valid at commit time.
type snapshot struct {
	net    *nfv.Network // deep clone; never mutated after the copy
	parent *nfv.Network // the live network object the clone was taken from
	gen    uint64       // graph generation at snapshot time
	epoch  uint64       // deployment epoch at snapshot time
	// The fields below are read fresh for every admission and never
	// cached: the solver options and trace ring as configured right now,
	// and whether an earlier admission had this clone before this one.
	opts   core.Options
	trace  *obs.TraceBuffer
	reused bool
}

// takeSnapshot returns the admission's read view; callers hold m.mu.
// The newest clone is kept and handed out again for as long as its
// (network, graph generation, deployment epoch) triple equals the live
// network's — the predicate settle commits under, so a reused clone is
// indistinguishable from a fresh one. A run of admissions that reuse
// live instances without deploying anything therefore shares one
// clone. Scaffolds are keyed by deployed set rather than by epoch
// (mod.Cache), so they outlive the clone: a later snapshot at a
// deployment seen before finds the scaffolds reused there.
//
// An attempt solving ahead of its turn takes the same clone but leaves
// reused for settle to decide, in commit order (see claimSnapshot).
//
// Concurrent solvers share the clone, so everything it computes lazily
// — the metric closure and the server list — is warmed on the live
// network first: Clone copies both, and the live network and every
// clone then share one APSP run.
func (m *Manager) takeSnapshot(ahead bool) snapshot {
	if s := &m.snap; s.net == nil || s.parent != m.net ||
		s.gen != m.net.Graph().Generation() || s.epoch != m.net.DeployEpoch() {
		m.net.Metric()
		m.net.ServerList()
		m.snap = snapshot{
			net:    m.net.Clone(),
			parent: m.net,
			gen:    m.net.Graph().Generation(),
			epoch:  m.net.DeployEpoch(),
		}
		m.snapClaimed = false
	}
	s := m.snap
	if !ahead {
		s.reused = m.claimSnapshot()
	}
	s.opts, s.trace = m.opts, m.trace
	return s
}

// claimSnapshot reports whether an admission already had its turn on
// the cached clone, and records that one now has; callers hold m.mu.
// The answer is Session.Coalesced, and it must not depend on who
// cloned first: an attempt solved ahead of its turn asks when its turn
// comes, so it hears what a serial run would have told it.
func (m *Manager) claimSnapshot() (reused bool) {
	reused, m.snapClaimed = m.snapClaimed, true
	return reused
}

// Admit solves the task against the current deployment state,
// installs its new instances, and reference-counts every dynamic
// instance its flows traverse. A solver failure (no capacity, no
// route) yields ErrRejected with the cause wrapped; a write-ahead log
// that refuses the commit yields ErrWAL.
func (m *Manager) Admit(task nfv.Task) (*Session, error) {
	return m.AdmitCtx(context.Background(), task)
}

// AdmitCtx is Admit with a solve deadline: the context is threaded
// into core.Options.Ctx, so an expiring deadline yields the best
// feasible embedding found so far (anytime semantics) rather than an
// abort — admission still succeeds with Result.EarlyStop set. It is
// the one admission routine: library callers and the HTTP handler call
// it, and the admission queue runs its two halves, Solve and Settle,
// with the wait for the ticket's turn in between.
//
// The solve runs outside the manager lock against a snapshot; the
// commit step re-acquires the lock, verifies the snapshot's version
// (or, when only the deployment epoch moved, re-validates exactly the
// instances and capacities the embedding touches) and installs the
// session. On conflict it re-solves against a fresh snapshot up to
// maxAdmitRetries times; the round after that is the same round with
// the lock held from snapshot to commit, which cannot conflict.
func (m *Manager) AdmitCtx(ctx context.Context, task nfv.Task) (*Session, error) {
	return m.Solve(ctx, task, false).Settle()
}

// Attempt is one admission between its two halves: Solve has run the
// solver against a snapshot, nothing is committed, and Settle makes
// the verdict final. Every field but retries and the two flags
// describes the latest round. An Attempt must be settled, exactly
// once: Drain waits for it from Solve until Settle returns.
type Attempt struct {
	m    *Manager
	ctx  context.Context
	task nfv.Task
	// ahead marks a result solved before the admissions ordered in
	// front of it had committed; stale that the network had moved by
	// its turn, so that result was thrown away and Settle solved again.
	ahead, stale bool

	snap    snapshot
	sess    *Session
	res     *core.Result
	err     error
	rec     *obs.SpanRecorder // pooled; finishAdmit releases it
	tracing *obs.TraceBuffer
	retries int
	// start is when the round in hand began and busy what the first
	// half took; the time the attempt then sat waiting for Settle is
	// nobody's solve time and is left out of both.
	start time.Time
	busy  time.Duration
}

// Stale reports whether Settle had to discard a solve that ran ahead.
func (a *Attempt) Stale() bool { return a.stale }

// Solve is the first half of AdmitCtx: snapshot, then the two-stage
// solver on the clone with the scaffold cache, outside the lock. ahead
// says the caller is solving before its turn — earlier admissions of
// an order it means to keep have not settled yet. Such a result stands
// for what a solve at its turn would return only if nothing moved in
// between, so Settle commits it at the exact snapshot version or not
// at all.
func (m *Manager) Solve(ctx context.Context, task nfv.Task, ahead bool) *Attempt {
	m.inflight.Add(1)
	a := &Attempt{m: m, ctx: ctx, task: task, ahead: ahead, start: time.Now()}
	a.solve(false)
	a.busy = time.Since(a.start)
	return a
}

// solve runs one round's snapshot and solver. Ordinarily only the
// snapshot holds m.mu and the solver runs unlocked; with locked set the
// caller holds it throughout, so nothing can move under the round. The
// solver never sees the live network either way.
func (a *Attempt) solve(locked bool) {
	m := a.m
	if !locked {
		m.mu.Lock()
	}
	a.snap = m.takeSnapshot(a.ahead)
	if !locked {
		m.mu.Unlock()
	}
	opts := a.snap.opts
	opts.Ctx = a.ctx
	opts.Scaffolds = m.scaffolds
	a.tracing = a.snap.trace
	if a.tracing != nil {
		if a.rec == nil {
			a.rec = obs.AcquireRecorder()
		}
		a.rec.Reset() // a round's trace is that round's solve
		opts.Observer = obs.Tee(opts.Observer, a.rec)
	}
	a.res, a.err = core.Solve(a.snap.net, a.task, opts)
}

// Settle is the second half of AdmitCtx: it commits the session or
// rejects the task if the solve still describes the live network, and
// otherwise solves again until it does. A solve that ran ahead and
// went stale is discarded whole — no conflict, no retry, no trace and
// no latency sample — and the attempt carries on as the ordinary
// admission it would have been at its turn. Once the retries are used
// up the round keeps the lock from snapshot to commit: that is the
// progress guarantee, and the only difference is where the lock is
// dropped.
func (a *Attempt) Settle() (*Session, error) {
	m := a.m
	defer m.inflight.Done()
	began := time.Now()
	m.mu.Lock()
	for !m.settle(a) {
		if a.ahead {
			began = time.Now()
			a.ahead, a.stale, a.start, a.busy = false, true, began, 0
		} else {
			a.retries++
		}
		if a.retries > maxAdmitRetries {
			m.serializedFallbacks++
			a.solve(true)
			continue
		}
		m.mu.Unlock()
		a.solve(false)
		m.mu.Lock()
	}
	m.mu.Unlock()
	m.finishAdmit(a, a.busy+time.Since(began))
	return a.sess, a.err
}

// finishAdmit records the admission's trace and latency once the
// outcome is final. Exactly one trace is added per admission, carrying
// the spans of the round that produced the outcome.
func (m *Manager) finishAdmit(a *Attempt, took time.Duration) {
	if m.met != nil {
		m.met.solveMS.ObserveDuration(took)
	}
	if a.tracing != nil {
		a.tracing.Record(admitTrace(a, took), a.rec)
	}
	a.rec.Release()
	a.rec = nil
}

// admitTrace is the trace of a settled admission, less the solver
// events the ring copies from the attempt's recorder.
func admitTrace(a *Attempt, took time.Duration) obs.Trace {
	t := obs.Trace{
		Op:          "admit",
		RequestID:   obs.RequestID(a.ctx),
		Session:     -1,
		Retries:     a.retries,
		Speculative: a.ahead || a.stale,
		Stale:       a.stale,
		Start:       a.start,
		DurationNs:  took.Nanoseconds(),
	}
	if a.sess != nil {
		t.Session = int(a.sess.ID)
	}
	if a.res != nil {
		t.EarlyStop = a.res.EarlyStop
	}
	if a.err != nil {
		t.Err = a.err.Error()
	}
	return t
}

// settle is the short serialized phase of a round; callers hold m.mu.
// It decides whether the solve's snapshot still describes the live
// network — same network object, same graph generation, and either
// the same deployment epoch or, when only the epoch moved, unchanged
// state for exactly the instances and node capacities the embedding
// touches — and if so makes the solve's verdict final: the session is
// committed, or the task rejected. Otherwise it returns false, asking
// for a re-solve, and counts a conflict unless the solve ran ahead.
//
// A rejection needs the exact version: load a concurrent commit added
// cannot make an infeasible task feasible, but capacity a concurrent
// release freed could, and there is no embedding to re-validate. So
// does a solve that ran ahead: re-validation admits an embedding that
// is still feasible, not the one a solve at its turn would have found
// — an instance deployed meanwhile is one it would have reused for
// free.
func (m *Manager) settle(a *Attempt) (final bool) {
	current := m.net == a.snap.parent && m.net.Graph().Generation() == a.snap.gen
	if current && m.net.DeployEpoch() != a.snap.epoch {
		current = !a.ahead && a.err == nil && m.revalidateLocked(a.task, a.res.Embedding)
	}
	if !current {
		if !a.ahead {
			m.commitConflicts++
		}
		return false
	}
	if a.ahead {
		a.snap.reused = m.claimSnapshot()
	}
	if a.err != nil {
		a.err = m.rejectLocked(a.err)
	} else {
		a.sess, a.err = m.commitLocked(a.task, a.res, a.snap.reused)
	}
	return true
}

// rejectLocked counts one rejection and types its cause; callers hold
// m.mu.
func (m *Manager) rejectLocked(cause error) error {
	m.rejected++
	return fmt.Errorf("%w: %w", ErrRejected, cause)
}

// revalidateLocked re-checks an embedding solved against an older
// deployment epoch, touching only the state the embedding depends on:
//
//   - every fresh instance must still be uninstalled, and the summed
//     demand of fresh instances per node must still fit the node's
//     remaining capacity (constraint (1f));
//   - every pre-existing instance a walk is served by must still be
//     deployed, because the solver priced it at zero setup cost and
//     its walks route through it.
//
// Anything else a concurrent commit changed — instances on nodes this
// embedding avoids — cannot affect its feasibility or cost, so the
// common case of disjoint concurrent admissions commits without a
// re-solve. Callers hold m.mu.
func (m *Manager) revalidateLocked(task nfv.Task, emb *nfv.Embedding) bool {
	fresh := getKeySet()
	defer putKeySet(fresh)
	for _, inst := range emb.NewInstances {
		if m.net.IsDeployed(inst.VNF, inst.Node) {
			return false // someone installed the same instance meanwhile
		}
		fresh.add([2]int{inst.VNF, inst.Node})
	}
	// Per-node capacity: sum the demand this embedding adds to each
	// node and check it still fits. NewInstances lists are short, so
	// the quadratic grouping stays cheap and allocation-free.
	for i, inst := range emb.NewInstances {
		grouped := false
		for _, prev := range emb.NewInstances[:i] {
			if prev.Node == inst.Node {
				grouped = true
				break
			}
		}
		if grouped {
			continue // node already checked with its full addition
		}
		var add float64
		for _, other := range emb.NewInstances[i:] {
			if other.Node == inst.Node {
				if vnf, err := m.net.VNF(other.VNF); err == nil {
					add += vnf.Demand
				}
			}
		}
		if m.net.UsedCapacity(inst.Node)+add > m.net.Capacity(inst.Node)+1e-9 {
			return false
		}
	}
	// Reused serving instances must still exist.
	seen := getKeySet()
	defer putKeySet(seen)
	k := task.K()
	for di := range task.Destinations {
		for lvl := 1; lvl <= k; lvl++ {
			key := [2]int{task.Chain[lvl-1], emb.ServingNode(di, lvl)}
			if !seen.add(key) || fresh.has(key) {
				continue
			}
			if !m.net.IsDeployed(key[0], key[1]) {
				return false
			}
		}
	}
	return true
}

// commitLocked installs a validated solver result: it deploys the
// fresh instances (rolling back on the impossible install failure),
// writes the admit record — session ID, embedding, cost and the usage
// list of every dynamic instance the walks traverse — appends it to
// the attached WAL, and only then lets apply fold it into the ledger.
// The append sits between "the session is fully decided" and "the
// in-memory state changes", so a crash on either side is clean: before
// it nothing was committed (the record is absent, the deploys die with
// the process), after it the record replays through the same apply
// into the exact state this commit was about to install. Callers hold
// m.mu.
func (m *Manager) commitLocked(task nfv.Task, res *core.Result, coalesced bool) (*Session, error) {
	fresh := res.Embedding.NewInstances
	for i, inst := range fresh {
		if err := m.net.Deploy(inst.VNF, inst.Node); err != nil {
			// This indicates a solver bug: validated embeddings must fit
			// capacity.
			m.undeploy(fresh[:i])
			return nil, m.rejectLocked(fmt.Errorf("install: %w", err))
		}
	}
	rec := &wal.Record{
		Type:      wal.RecAdmit,
		Session:   int64(m.nextID),
		Embedding: res.Embedding,
		FinalCost: res.FinalCost,
	}
	// The usage list: reused instances already in the ledger, then the
	// fresh installs. The dedup scratch comes from a pool, so the
	// critical section allocates only the record and the session.
	seen := getKeySet()
	for di := range task.Destinations {
		for lvl := 1; lvl <= task.K(); lvl++ {
			key := [2]int{task.Chain[lvl-1], res.Embedding.ServingNode(di, lvl)}
			if !seen.add(key) {
				continue
			}
			if _, dynamicInst := m.refs[key]; dynamicInst {
				rec.Uses = append(rec.Uses, key)
			}
		}
	}
	putKeySet(seen)
	for _, inst := range fresh {
		rec.Uses = append(rec.Uses, [2]int{inst.VNF, inst.Node})
	}

	out, err := m.commitDurable(rec, "admit:post-wal")
	if err != nil {
		// Durability is part of the commit: an unloggable admission is
		// refused and its installs undone, keeping disk and memory in
		// agreement (both without the session).
		m.undeploy(fresh)
		return nil, err
	}
	// The ledger keeps what the record carries; the live session also
	// offers the solver's full result.
	out.sess.Result, out.sess.Coalesced = res, coalesced
	if coalesced {
		m.coalescedSolves++
	}
	return out.sess, nil
}

// undeploy removes instances this commit installed itself, so the
// removals cannot fail.
func (m *Manager) undeploy(insts []nfv.Instance) {
	for _, inst := range insts {
		_ = m.net.Undeploy(inst.VNF, inst.Node)
	}
}

// Release tears a session down: every dynamic instance it referenced
// is decremented and undeployed once no live session uses it. Like
// admission, the release record hits the WAL before apply changes the
// in-memory state, so a crash either loses the whole release (the
// session survives restore) or none of it.
func (m *Manager) Release(id SessionID) error {
	m.inflight.Add(1)
	defer m.inflight.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	out, err := m.commitDurable(&wal.Record{Type: wal.RecRelease, Session: int64(id)}, "release:post-wal")
	if err != nil {
		return fmt.Errorf("dynamic: release %d: %w", id, err)
	}
	for _, key := range out.orphans {
		if err := m.net.Undeploy(key[0], key[1]); err != nil {
			return fmt.Errorf("dynamic: release %d: %w", id, err)
		}
	}
	if m.met != nil {
		m.met.released.Inc()
	}
	return nil
}

// Sessions returns a snapshot of the live sessions ordered by ID.
// Callers must treat the sessions as read-only.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, sess := range m.sessions {
		out = append(out, sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Active returns the number of live sessions.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// LiveInstances returns the number of dynamically deployed instances
// currently installed.
func (m *Manager) LiveInstances() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.refs)
}

// Refs returns a copy of the dynamic-instance reference counts:
// (vnf, node) → number of live sessions traversing that instance.
// Test harnesses use it to assert refcount conservation against the
// sessions' own usage lists.
func (m *Manager) Refs() map[[2]int]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[[2]int]int, len(m.refs))
	for k, v := range m.refs {
		out[k] = v
	}
	return out
}

// Stats summarizes the manager's history.
type Stats struct {
	Admitted     int     `json:"admitted"`
	Rejected     int     `json:"rejected"`
	Active       int     `json:"active"`
	AdmittedCost float64 `json:"admitted_cost"` // sum of admission-time costs
	// CommitConflicts counts optimistic commit attempts invalidated by
	// a concurrent commit; AdmitRetries the solve reruns they forced,
	// one each, so it reads the same counter;
	// SerializedFallbacks admissions that exhausted their retries and
	// ran their last attempt holding the lock. All three stay zero
	// without concurrency.
	CommitConflicts     int `json:"commit_conflicts"`
	AdmitRetries        int `json:"admit_retries"`
	SerializedFallbacks int `json:"serialized_fallbacks"`
	// CoalescedSolves counts admissions that committed off a reused
	// snapshot: the sessions whose Coalesced is set.
	CoalescedSolves int `json:"coalesced_solves,omitempty"`
	// Durability history; all zero without an attached WAL.
	WALRecords      int    `json:"wal_records,omitempty"`
	WALAppendErrors int    `json:"wal_append_errors,omitempty"`
	Snapshots       int    `json:"snapshots,omitempty"`
	LastSnapshotSeq uint64 `json:"last_snapshot_seq,omitempty"`
	// CheckpointDirty reports a swallowed repair/rebase append failure
	// not yet healed by a snapshot (see NeedsCheckpoint).
	CheckpointDirty bool `json:"checkpoint_dirty,omitempty"`
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Admitted:            m.admitted,
		Rejected:            m.rejected,
		Active:              len(m.sessions),
		AdmittedCost:        m.admittedCost,
		CommitConflicts:     m.commitConflicts,
		AdmitRetries:        m.commitConflicts,
		SerializedFallbacks: m.serializedFallbacks,
		CoalescedSolves:     m.coalescedSolves,
		WALRecords:          m.walRecords,
		WALAppendErrors:     m.walAppendErrors,
		Snapshots:           m.snapshots,
		LastSnapshotSeq:     m.lastSnapshotSeq,
		CheckpointDirty:     m.checkpointDirty,
	}
}
