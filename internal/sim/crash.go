// Crash drives the durability acceptance gate: execute one
// deterministic, seeded script of admissions, releases and fault
// events twice — once straight through (the oracle), once with
// SIGKILL-equivalent crashes injected at configured points, each
// followed by a restore from the write-ahead log — and require the
// two final states to be bit-identical. A crash point can fire
// between operations or *inside* an admission's critical section,
// between the WAL append and the in-memory commit, which is the
// window an ordinary kill test never hits.
package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/queue"
	"sftree/internal/wal"
)

// CrashPoint names one injected crash in the op script.
type CrashPoint struct {
	// Op is the 0-based index into the script. MidCommit false crashes
	// *before* the op runs; MidCommit true arms the admit:post-wal
	// hook, so the crash fires inside that op's commit critical
	// section, after its record is durable but before the in-memory
	// state changes. (If the op turns out not to commit — a rejection —
	// the crash degrades to a post-op kill.)
	Op        int  `json:"op"`
	MidCommit bool `json:"mid_commit"`
	// Torn makes the crash tear the log: a partial frame is left at
	// the tail of the active segment (a SIGKILL mid-append), so the
	// restore must run the torn-tail recovery path — tolerate the
	// tear, truncate it from disk, lose nothing committed before it.
	Torn bool `json:"torn,omitempty"`
	// EnqueuedTasks parks this many accepted-but-undispatched tasks in
	// an admission queue in front of the crashing manager at the moment
	// of the kill. Queued work is not durable — nothing of it reaches
	// the WAL — so the restore must resurrect none of it (zero phantom
	// sessions) and every parked ticket must still terminate (with
	// ErrClosed) when the dead queue is abandoned.
	EnqueuedTasks int `json:"enqueued_tasks,omitempty"`
}

// CrashConfig parameterizes one crash-injection run. Everything is
// seeded; the same config reproduces the same script, crashes and
// states bit for bit.
type CrashConfig struct {
	// Nodes sizes the generated network (paper topology, mu=2).
	Nodes int
	// Seed drives network generation, the fault schedule and the op mix.
	Seed int64
	// Sessions is the initial admitted population before the mixed ops.
	Sessions int
	// Ops is the number of mixed operations (admit/release/fault) after
	// the initial population.
	Ops int
	// Faults bounds the fault events woven into the op mix.
	Faults int
	// Crashes lists the injection points. Ignored for the oracle run.
	Crashes []CrashPoint
	// CheckpointEvery folds a snapshot every N ops in the crashing run
	// (0 disables), so restores exercise snapshot+tail recovery, not
	// just full replay.
	CheckpointEvery int
	// Dir is the WAL directory for the crashing run; empty uses a
	// temporary directory that is removed afterwards.
	Dir string
}

// RestoreStat reports one crash/restore cycle.
type RestoreStat struct {
	Op              int    `json:"op"`
	MidCommit       bool   `json:"mid_commit"`
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	ReplayedRecords int    `json:"replayed_records"`
	TornTail        bool   `json:"torn_tail,omitempty"`
	Recovered       int    `json:"sessions_recovered"`
	ReplayNs        int64  `json:"replay_ns"`
	// ParkedAbandoned counts tickets that sat undispatched in the
	// admission queue at the kill and were audited to terminate with
	// ErrClosed, committing nothing.
	ParkedAbandoned int `json:"parked_abandoned,omitempty"`
}

// CrashReport is the outcome of a crash-injection run.
type CrashReport struct {
	Nodes         int `json:"nodes"`
	Ops           int `json:"ops"`
	Crashes       int `json:"crashes"`
	EventsApplied int `json:"events_applied"`
	// Oracle accounting: what the never-crashed run ended with.
	OracleLive     int           `json:"oracle_live"`
	OracleAdmitted int           `json:"oracle_admitted"`
	OracleCost     float64       `json:"oracle_cost"`
	Restores       []RestoreStat `json:"restores,omitempty"`
	// LostSessions lists committed session IDs the oracle holds but the
	// crashed-and-restored run lost; Mismatches every other divergence
	// (phantom sessions, embedding bytes, costs, refcounts, counters).
	// ValidationErrors lists conformance failures of the restored state.
	// The gate requires all three empty.
	LostSessions     []int    `json:"lost_sessions,omitempty"`
	Mismatches       []string `json:"mismatches,omitempty"`
	ValidationErrors []string `json:"validation_errors,omitempty"`
}

// Passed reports whether the run met the gate: no committed session
// lost, no accounting divergence, restored state conformance-clean.
func (r *CrashReport) Passed() bool {
	return len(r.LostSessions) == 0 && len(r.Mismatches) == 0 && len(r.ValidationErrors) == 0
}

// crashOp is one scripted operation.
type crashOp struct {
	kind int // 0 admit, 1 release, 2 fault
	task nfv.Task
	frac float64 // release: picks among live sessions
	ev   faults.Event
}

// buildScript pre-generates the whole run — network, fault schedule,
// op list — so the oracle and the crashing run execute identical work.
func buildScript(cfg CrashConfig) (*nfv.Network, []crashOp, error) {
	base, err := regenBase(cfg)
	if err != nil {
		return nil, nil, err
	}
	schedRng := rand.New(rand.NewSource(cfg.Seed + 1))
	sched, err := faults.Generate(base, faults.DefaultGenConfig(cfg.Faults), schedRng)
	if err != nil {
		return nil, nil, fmt.Errorf("crash: generate schedule: %w", err)
	}
	opRng := rand.New(rand.NewSource(cfg.Seed + 2))
	var ops []crashOp
	for i := 0; i < cfg.Sessions; i++ {
		task, err := netgen.GenerateTask(base, opRng, 2+opRng.Intn(3), 2+opRng.Intn(2))
		if err != nil {
			return nil, nil, fmt.Errorf("crash: sample task: %w", err)
		}
		ops = append(ops, crashOp{kind: 0, task: task})
	}
	nextEv := 0
	for i := 0; i < cfg.Ops; i++ {
		r := opRng.Float64()
		switch {
		case r < 0.25 && nextEv < len(sched.Events):
			ops = append(ops, crashOp{kind: 2, ev: sched.Events[nextEv]})
			nextEv++
		case r < 0.50:
			ops = append(ops, crashOp{kind: 1, frac: opRng.Float64()})
		default:
			task, err := netgen.GenerateTask(base, opRng, 2+opRng.Intn(3), 2+opRng.Intn(2))
			if err != nil {
				return nil, nil, fmt.Errorf("crash: sample task: %w", err)
			}
			ops = append(ops, crashOp{kind: 0, task: task})
		}
	}
	return base, ops, nil
}

// regenBase regenerates the base network; same seed, same bytes, so a
// restore can rebuild the substrate the crashed run was serving.
func regenBase(cfg CrashConfig) (*nfv.Network, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	base, err := netgen.Generate(netgen.PaperConfig(cfg.Nodes, 2), rng)
	if err != nil {
		return nil, fmt.Errorf("crash: generate network: %w", err)
	}
	return base, nil
}

// crashRunner executes script ops against one manager, tracking the
// fault state so the substrate can be rebuilt after a crash.
type crashRunner struct {
	mgr     *dynamic.Manager
	st      *faults.State
	applied []faults.Event
	events  int
}

func (r *crashRunner) exec(op crashOp) error {
	switch op.kind {
	case 0:
		_, _ = r.mgr.Admit(op.task) // rejections are a legal outcome
	case 1:
		sessions := r.mgr.Sessions()
		if len(sessions) == 0 {
			return nil
		}
		idx := int(op.frac * float64(len(sessions)))
		if idx >= len(sessions) {
			idx = len(sessions) - 1
		}
		if err := r.mgr.Release(sessions[idx].ID); err != nil {
			return fmt.Errorf("release %d: %w", sessions[idx].ID, err)
		}
	case 2:
		if err := r.st.Apply(op.ev); err != nil {
			return fmt.Errorf("apply %v: %w", op.ev, err)
		}
		degraded, err := r.st.Materialize(r.mgr.Network())
		if err != nil {
			return fmt.Errorf("materialize after %v: %w", op.ev, err)
		}
		r.mgr.Rebase(degraded)
		r.applied = append(r.applied, op.ev)
		r.events++
	}
	return nil
}

// parked is one admission queue full of accepted-but-undispatched
// tickets at the moment of a kill.
type parked struct {
	q       *queue.Queue
	plug    *queue.Ticket // in a solver's hands, waiting for a manager
	tickets []*queue.Ticket
	die     chan struct{} // closed when the kill takes the solvers down
}

// parkTasks fills a bounded queue in front of the crashing manager
// with tasks that are still undispatched when the kill fires. The
// queue is wedged inside a drain: a plug ticket is in a solver's
// hands and its manager lookup does not return until the
// process dies, so everything enqueued behind it is accepted but
// nothing about it is durable. abandon audits the aftermath.
func parkTasks(r *crashRunner, cfg CrashConfig, op, n int) (*parked, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(op)))
	p := &parked{die: make(chan struct{})}
	wedged := make(chan struct{})
	p.q = queue.New(queue.Config{
		Depth: n,
		Manager: func() *dynamic.Manager {
			close(wedged)
			<-p.die
			return nil // the process is gone; there is no manager to ask
		},
	})
	net := r.mgr.CloneNetwork()
	park := func() (*queue.Ticket, error) {
		task, err := netgen.GenerateTask(net, rng, 2+rng.Intn(3), 2+rng.Intn(2))
		if err != nil {
			return nil, fmt.Errorf("crash: park task: %w", err)
		}
		tk, err := p.q.Enqueue(context.Background(), task, time.Time{})
		if err != nil {
			return nil, fmt.Errorf("crash: park enqueue: %w", err)
		}
		return tk, nil
	}
	var err error
	if p.plug, err = park(); err != nil {
		return nil, err
	}
	<-wedged
	for i := 0; i < n; i++ {
		tk, err := park()
		if err != nil {
			return nil, err
		}
		p.tickets = append(p.tickets, tk)
	}
	return p, nil
}

// abandon closes the dead queue with an already-expired drain budget
// and audits the never-lose-a-task contract across the crash: every
// parked ticket terminates with ErrClosed, the plug the solver
// held finds no manager, and the queue's books say exactly that — the
// WAL saw none of these tasks, so any session the restore resurrects
// for them surfaces as a phantom in compareRuns.
func (p *parked) abandon(op int, rep *CrashReport) int {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p.q.Close(ctx)
	close(p.die)
	for i, tk := range p.tickets {
		sess, err := tk.Wait(context.Background())
		if sess != nil || !errors.Is(err, queue.ErrClosed) {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("parked ticket %d at op %d: sess=%v err=%v, want ErrClosed", i, op, sess, err))
		}
	}
	if sess, err := p.plug.Wait(context.Background()); sess != nil || !errors.Is(err, queue.ErrUnavailable) {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("held ticket at op %d: sess=%v err=%v, want ErrUnavailable", op, sess, err))
	}
	if st := p.q.Stats(); st.Admitted != 0 || st.Rejected != 0 ||
		st.Closed != uint64(len(p.tickets)) || st.Unavailable != 1 || st.Enqueued != st.Closed+1 {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("parked queue at op %d dispatched work: %+v", op, st))
	}
	return len(p.tickets)
}

// RunCrash executes the oracle and the crash-injected run and compares
// their final states. It returns an error only on setup problems;
// divergences land in the report for the caller to judge.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 30
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 15
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 30
	}
	if cfg.Faults <= 0 {
		cfg.Faults = 6
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "sftcrash-*"); err != nil {
			return nil, fmt.Errorf("crash: wal dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	baseOracle, ops, err := buildScript(cfg)
	if err != nil {
		return nil, err
	}
	rep := &CrashReport{Nodes: baseOracle.NumNodes(), Ops: len(ops), Crashes: len(cfg.Crashes)}

	// Oracle: the same script, no WAL, no crashes.
	oracle := &crashRunner{
		mgr: dynamic.NewManager(baseOracle, core.Options{}),
		st:  faults.NewState(baseOracle),
	}
	for i, op := range ops {
		if err := oracle.exec(op); err != nil {
			return nil, fmt.Errorf("crash: oracle op %d: %w", i, err)
		}
	}
	ost := oracle.mgr.Stats()
	rep.OracleLive, rep.OracleAdmitted, rep.OracleCost = ost.Active, ost.Admitted, ost.AdmittedCost
	rep.EventsApplied = oracle.events

	// Crashing run.
	crashAt := map[int]CrashPoint{}
	for _, cp := range cfg.Crashes {
		crashAt[cp.Op] = cp
	}
	log, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("crash: wal open: %w", err)
	}
	baseCrash, err := regenBase(cfg)
	if err != nil {
		return nil, err
	}
	run := &crashRunner{
		mgr: dynamic.NewManager(baseCrash, core.Options{}).AttachWAL(log),
		st:  faults.NewState(baseCrash),
	}
	// kill simulates the SIGKILL; both variants are idempotent, so
	// restore can call it again after a mid-commit hook already fired.
	kill := func(cp CrashPoint) {
		if cp.Torn {
			log.CrashTorn()
		} else {
			log.Crash()
		}
	}
	restore := func(op int, cp CrashPoint) error {
		kill(cp)
		base2, err := regenBase(cfg)
		if err != nil {
			return err
		}
		st2 := faults.NewState(base2)
		for _, ev := range run.applied {
			if err := st2.Apply(ev); err != nil {
				return fmt.Errorf("crash: rebuild fault state: %w", err)
			}
		}
		net2, err := st2.Materialize(base2)
		if err != nil {
			return fmt.Errorf("crash: rebuild substrate: %w", err)
		}
		l2, rec2, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
		if err != nil {
			return fmt.Errorf("crash: reopen wal: %w", err)
		}
		m2, rr, err := dynamic.Restore(net2, l2, rec2, core.Options{})
		if err != nil {
			return fmt.Errorf("crash: restore at op %d: %w", op, err)
		}
		rep.Restores = append(rep.Restores, RestoreStat{
			Op: op, MidCommit: cp.MidCommit,
			SnapshotSeq: rr.SnapshotSeq, ReplayedRecords: rr.ReplayedRecords,
			TornTail: rr.TornTail, Recovered: rr.SessionsRecovered,
			ReplayNs: rr.ReplayDuration.Nanoseconds(),
		})
		if cp.Torn && !rr.TornTail {
			// The injection claims a torn write happened; a restore that
			// never saw it means the harness did not exercise the path.
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("torn crash at op %d did not surface a torn tail", op))
		}
		rep.ValidationErrors = append(rep.ValidationErrors, rr.Errors...)
		log = l2
		run.mgr, run.st = m2, st2
		return nil
	}
	if !rec.Empty() {
		return nil, fmt.Errorf("crash: wal dir %s not empty", dir)
	}

	type crashSentinel struct{}
	for i, op := range ops {
		cp, crashHere := crashAt[i]
		var park *parked
		if crashHere && cp.EnqueuedTasks > 0 {
			// Park queued-but-undispatched tasks so the kill catches a
			// live admission queue mid-flight.
			var perr error
			if park, perr = parkTasks(run, cfg, i, cp.EnqueuedTasks); perr != nil {
				return nil, perr
			}
		}
		audit := func() {
			if park == nil {
				return
			}
			n := park.abandon(i, rep)
			rep.Restores[len(rep.Restores)-1].ParkedAbandoned = n
			park = nil
		}
		if crashHere && !cp.MidCommit {
			if err := restore(i, cp); err != nil {
				return nil, err
			}
			audit()
		}
		if crashHere && cp.MidCommit {
			fired := false
			run.mgr.SetCrashHook(func(point string) {
				if point == "admit:post-wal" {
					fired = true
					kill(cp)
					panic(crashSentinel{})
				}
			})
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(crashSentinel); !ok {
							panic(r)
						}
					}
				}()
				return run.exec(op)
			}()
			if err != nil {
				return nil, fmt.Errorf("crash: op %d: %w", i, err)
			}
			if !fired {
				// The op never reached a commit (release/fault/rejected
				// admit): degrade to a post-op kill. State-changing ops
				// already logged their records, so nothing is lost.
				kill(cp)
			}
			if err := restore(i, cp); err != nil {
				return nil, err
			}
			audit()
			continue
		}
		if err := run.exec(op); err != nil {
			return nil, fmt.Errorf("crash: op %d: %w", i, err)
		}
		if cfg.CheckpointEvery > 0 && i > 0 && i%cfg.CheckpointEvery == 0 {
			if _, err := run.mgr.Checkpoint(); err != nil {
				return nil, fmt.Errorf("crash: checkpoint at op %d: %w", i, err)
			}
		}
	}
	log.Close()

	compareRuns(rep, oracle.mgr, run.mgr)
	validateFinal(rep, run.mgr)
	return rep, nil
}

// compareRuns diffs the two managers' committed state: sessions by
// embedding bytes, cost bits, degradation marks and usage lists, the
// refcount ledger, and the admission accounting. The rejected counter
// is deliberately excluded: rejections do not commit, so a crash may
// lose rejections recorded since the last snapshot without losing any
// committed state.
func compareRuns(rep *CrashReport, oracle, crashed *dynamic.Manager) {
	osess, csess := oracle.Sessions(), crashed.Sessions()
	byID := make(map[dynamic.SessionID]*dynamic.Session, len(csess))
	for _, s := range csess {
		byID[s.ID] = s
	}
	for _, want := range osess {
		got, ok := byID[want.ID]
		if !ok {
			rep.LostSessions = append(rep.LostSessions, int(want.ID))
			continue
		}
		delete(byID, want.ID)
		wantEmb, err1 := json.Marshal(want.Result.Embedding)
		gotEmb, err2 := json.Marshal(got.Result.Embedding)
		if err1 != nil || err2 != nil {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("session %d: encode: %v / %v", want.ID, err1, err2))
			continue
		}
		if string(wantEmb) != string(gotEmb) {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("session %d: embedding bytes diverged", want.ID))
		}
		if want.Result.FinalCost != got.Result.FinalCost {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("session %d: cost %v vs %v", want.ID, want.Result.FinalCost, got.Result.FinalCost))
		}
		if want.Degraded != got.Degraded || !equalInts(want.Lost, got.Lost) {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("session %d: degraded/lost %v%v vs %v%v",
					want.ID, want.Degraded, want.Lost, got.Degraded, got.Lost))
		}
	}
	for id := range byID {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("session %d: phantom (absent in oracle)", id))
	}
	sort.Strings(rep.Mismatches)

	orefs, crefs := oracle.Refs(), crashed.Refs()
	if len(orefs) != len(crefs) {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("refcount ledger size %d vs %d", len(orefs), len(crefs)))
	}
	for k, v := range orefs {
		if crefs[k] != v {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("refcount vnf=%d node=%d: %d vs %d", k[0], k[1], v, crefs[k]))
		}
	}
	ostats, cstats := oracle.Stats(), crashed.Stats()
	if ostats.Admitted != cstats.Admitted {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("admitted %d vs %d", ostats.Admitted, cstats.Admitted))
	}
	if ostats.AdmittedCost != cstats.AdmittedCost {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("admitted cost %v vs %v (must match to the bit)", ostats.AdmittedCost, cstats.AdmittedCost))
	}
	if ostats.Active != cstats.Active {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("active %d vs %d", ostats.Active, cstats.Active))
	}
}

// validateFinal runs the conformance validator and refcount
// conservation over the crashed run's final state.
func validateFinal(rep *CrashReport, m *dynamic.Manager) {
	net := m.Network()
	for _, sess := range m.Sessions() {
		if sess.Degraded {
			continue
		}
		if err := conformance.CheckLive(net, sess.Result.Embedding); err != nil {
			rep.ValidationErrors = append(rep.ValidationErrors,
				fmt.Sprintf("final: session %d: validate: %v", sess.ID, err))
		}
	}
	if err := m.VerifyRefs(); err != nil {
		rep.ValidationErrors = append(rep.ValidationErrors, fmt.Sprintf("final: %v", err))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
