// Script drives the fault and crash gates: one seeded, JSON-serialisable
// op script of admissions, releases, fault events, checkpoints and
// crashes runs through the dynamic manager. Two managers step through
// it in lockstep — the never-crashed oracle, and, when the script holds
// crashes, a WAL-backed run that is killed and restored from its log at
// every crash — and after every op each non-degraded session of both
// must hold a valid, deliverable embedding, both refcount ledgers must
// re-derive from the sessions, and the crash run must equal the oracle
// in sessions, refcounts and accounting.
package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
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

// Op kinds.
const (
	OpAdmit      = "admit"
	OpRelease    = "release"
	OpFault      = "fault"
	OpCheckpoint = "checkpoint"
	OpCrash      = "crash"
)

var opKinds = map[string]bool{OpAdmit: true, OpRelease: true, OpFault: true, OpCheckpoint: true, OpCrash: true}

// Op is one scripted operation.
type Op struct {
	Op string `json:"op"`
	// Task is an admit op's request. A rejection is a legal outcome.
	Task *nfv.Task `json:"task,omitempty"`
	// MidCommit (admit only) kills the crash run inside this admission's
	// commit critical section, after its WAL record is durable and
	// before the in-memory state changes — the window a kill between
	// ops never hits.
	MidCommit bool `json:"mid_commit,omitempty"`
	// Pick (release only) selects the live session at index
	// floor(Pick*live) in ID order; with no live session the op is a
	// no-op.
	Pick float64 `json:"pick,omitempty"`
	// Event is a fault op's substrate change.
	Event *faults.Event `json:"event,omitempty"`
	// Torn (crash or mid-commit admit) leaves a partial frame at the
	// log's tail, the signature of a kill mid-append, so the restore
	// runs the torn-tail recovery path.
	Torn bool `json:"torn,omitempty"`
	// Park (crash or mid-commit admit) holds this many
	// accepted-but-undispatched tickets in an admission queue in front
	// of the crash run at the kill. Queued work is not durable: the
	// restore must resurrect none of it, and every ticket must still
	// terminate.
	Park int `json:"park,omitempty"`
}

func (op Op) crashes() bool { return op.Op == OpCrash || op.MidCommit }

// Script is a seeded op script over the paper topology of Nodes nodes
// generated from Seed (see Network).
type Script struct {
	Nodes int   `json:"nodes"`
	Seed  int64 `json:"seed"`
	Ops   []Op  `json:"ops"`
}

// Network generates the script's substrate: same nodes and seed, same
// bytes.
func (s *Script) Network() (*nfv.Network, error) {
	base, err := netgen.Generate(netgen.PaperConfig(s.Nodes, 2), rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, fmt.Errorf("sim: generate network: %w", err)
	}
	return base, nil
}

// validate rejects ops whose fields do not fit their kind, so a crash
// can only be requested where it can fire.
func (s *Script) validate() error {
	for i, op := range s.Ops {
		if !opKinds[op.Op] || (op.Task != nil) != (op.Op == OpAdmit) || (op.Event != nil) != (op.Op == OpFault) ||
			op.Pick < 0 || op.Pick >= 1 || (op.Pick != 0 && op.Op != OpRelease) ||
			(op.MidCommit && op.Op != OpAdmit) || op.Park < 0 || (!op.crashes() && (op.Torn || op.Park != 0)) {
			return fmt.Errorf("sim: script op %d: malformed %q op", i, op.Op)
		}
	}
	return nil
}

// GenConfig sizes a generated script.
type GenConfig struct {
	Nodes int
	Seed  int64
	// Sessions admits open the script; Ops mixed admit/release/fault
	// ops follow, then every fault event of the Faults-long schedule
	// not yet used.
	Sessions, Ops, Faults int
	// Crashes adds this many crashes (see placeCrashes).
	Crashes int
}

// Generate draws the seeded script the gates run. A dry run of the
// oracle follows the ops as they are drawn: the faults are drawn on the
// network the opening admits leave, so instance kills can hit instances
// sessions deployed, and the mid-commit crash lands on an admit that
// commits.
func Generate(cfg GenConfig) (*Script, error) {
	s := &Script{Nodes: cfg.Nodes, Seed: cfg.Seed}
	base, err := s.Network()
	if err != nil {
		return nil, err
	}
	dry := newRunner(s, base, "")
	var commits []bool
	add := func(op Op) error {
		admitted := dry.rep.Admitted
		if err := dry.exec(dry.oracle, op); err != nil {
			return fmt.Errorf("sim: dry run op %d: %w", len(s.Ops), err)
		}
		s.Ops, commits = append(s.Ops, op), append(commits, dry.rep.Admitted > admitted)
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	admit := func() error {
		task, err := netgen.GenerateTask(base, rng, 2+rng.Intn(3), 2+rng.Intn(2))
		if err != nil {
			return fmt.Errorf("sim: sample task: %w", err)
		}
		return add(Op{Op: OpAdmit, Task: &task})
	}
	for i := 0; i < cfg.Sessions; i++ {
		if err := admit(); err != nil {
			return nil, err
		}
	}
	var events []faults.Event
	if cfg.Faults > 0 {
		events, err = faults.Generate(dry.oracle.mgr.Network(), faults.DefaultGenConfig(cfg.Faults), rand.New(rand.NewSource(cfg.Seed+1)))
		if err != nil {
			return nil, fmt.Errorf("sim: generate faults: %w", err)
		}
	}
	for i := 0; i < cfg.Ops && err == nil; i++ {
		switch r := rng.Float64(); {
		case r < 0.25 && len(events) > 0:
			err = add(Op{Op: OpFault, Event: &events[0]})
			events = events[1:]
		case r < 0.50:
			err = add(Op{Op: OpRelease, Pick: rng.Float64()})
		default:
			err = admit()
		}
	}
	for i := 0; i < len(events) && err == nil; i++ {
		err = add(Op{Op: OpFault, Event: &events[i]})
	}
	if err != nil {
		return nil, err
	}
	s.Ops = placeCrashes(s.Ops, commits, cfg.Crashes)
	return s, nil
}

// placeCrashes spreads n crashes evenly over ops, each parking three
// queued tickets. Odd-numbered ones tear the log; the last one fires
// mid-commit, on the first committing admit at or after its slot. With two or
// more, the first is crashed again after the op that follows it — the
// double-crash window, where a tear surviving the first recovery on
// disk would brick the log. A checkpoint every len(ops)/3+1 ops makes
// later restores read a snapshot plus its tail, and is never placed
// between that torn crash and its re-crash.
func placeCrashes(ops []Op, commits []bool, n int) []Op {
	total, first := len(ops), -1
	if n <= 0 || total == 0 {
		return ops
	}
	before := make([][]Op, total+1)
	for i := 1; i <= n; i++ {
		at := i * total / (n + 1)
		crash := Op{Op: OpCrash, Torn: i%2 == 1, Park: 3}
		if i == n {
			for j := at; j < total; j++ {
				if commits[j] {
					ops[j].MidCommit, ops[j].Torn, ops[j].Park = true, crash.Torn, crash.Park
					at = -1
					break
				}
			}
		}
		if at >= 0 {
			before[at] = append(before[at], crash)
		}
		if i == 1 && n >= 2 {
			first = at
			before[at+1] = append(before[at+1], Op{Op: OpCrash})
		}
	}
	every := total/3 + 1
	out := make([]Op, 0, total+2*n+3)
	for i, op := range ops {
		out = append(append(out, before[i]...), op)
		if i > 0 && i%every == 0 && i != first {
			out = append(out, Op{Op: OpCheckpoint})
		}
	}
	return append(out, before[total]...)
}

// RestoreStat reports one crash and the restore that followed it.
type RestoreStat struct {
	Op int `json:"op"`
	// MidCommit reports that the admit:post-wal hook fired.
	MidCommit       bool   `json:"mid_commit"`
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	ReplayedRecords int    `json:"replayed_records"`
	TornTail        bool   `json:"torn_tail,omitempty"`
	Recovered       int    `json:"sessions_recovered"`
	// ParkedAbandoned counts queued tickets audited to terminate with
	// ErrClosed, committing nothing.
	ParkedAbandoned int `json:"parked_abandoned,omitempty"`
}

// Failure is one per-op check a run failed.
type Failure struct {
	Op  int    `json:"op"`
	Run string `json:"run"` // "oracle" or "crash"
	// Check is "live" (conformance.CheckLive), "broken" (a walk crosses
	// a failed element), "replay" (the flow-level replay), "refs"
	// (VerifyRefs) or "restore" (the restore's own cross-check).
	Check string `json:"check"`
	Err   string `json:"error"`
}

func (f Failure) String() string {
	return fmt.Sprintf("op %d, %s run: %s: %s", f.Op, f.Run, f.Check, f.Err)
}

// ScriptReport is the outcome of a script run. Counters describe the
// oracle.
type ScriptReport struct {
	Nodes         int `json:"nodes"`
	Ops           int `json:"ops"`
	Admitted      int `json:"admitted"`
	EventsApplied int `json:"events_applied"`
	Affected      int `json:"affected"`
	Patched       int `json:"patched"`
	Degraded      int `json:"degraded"`
	// RepairsWithReuse counts successful repairs that leaned on at least
	// one surviving instance.
	RepairsWithReuse int     `json:"repairs_with_reuse"`
	CostDelta        float64 `json:"cost_delta"`
	// Checks counts session checks, over both runs and every op.
	Checks        int           `json:"checks"`
	FinalLive     int           `json:"final_live"`
	FinalDegraded int           `json:"final_degraded"`
	AdmittedCost  float64       `json:"admitted_cost"`
	Restores      []RestoreStat `json:"restores,omitempty"`
	// DivergedAt is the first op after which the crash run differed
	// from the oracle; LostSessions and Mismatches describe that
	// difference (phantom sessions, embedding bytes, costs, refcounts,
	// counters), and Mismatches also holds crashes that did not happen
	// as scripted.
	DivergedAt       *int      `json:"diverged_at,omitempty"`
	LostSessions     []int     `json:"lost_sessions,omitempty"`
	Mismatches       []string  `json:"mismatches,omitempty"`
	ValidationErrors []Failure `json:"validation_errors,omitempty"`
}

// Passed reports whether the run lost no committed session, never
// diverged from the oracle and failed no check.
func (r *ScriptReport) Passed() bool {
	return len(r.LostSessions) == 0 && len(r.Mismatches) == 0 && len(r.ValidationErrors) == 0
}

// run is one manager stepping through the script, with the fault state
// its substrate is materialized from.
type run struct {
	name string
	mgr  *dynamic.Manager
	st   *faults.State
	log  *wal.Log // nil for the oracle
}

type runner struct {
	s       *Script
	base    *nfv.Network
	dir     string
	rep     *ScriptReport
	oracle  *run
	crash   *run // nil when the script holds no crash
	applied []faults.Event
}

// Run steps the script over base, the pristine substrate, which it
// never mutates. dir is the crash run's WAL directory and must be empty;
// "" uses a temporary directory. Run returns an error only when the
// script cannot run (a malformed op, an invalid fault event, a failed
// restore); check failures and divergences land in the report.
func (s *Script) Run(base *nfv.Network, dir string) (*ScriptReport, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	r := newRunner(s, base, dir)
	if slices.ContainsFunc(s.Ops, Op.crashes) {
		if r.dir == "" {
			tmp, err := os.MkdirTemp("", "sftscript-*")
			if err != nil {
				return nil, fmt.Errorf("sim: wal dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			r.dir = tmp
		}
		log, rec, err := wal.Open(r.dir, wal.Config{Policy: wal.SyncAlways})
		if err != nil {
			return nil, fmt.Errorf("sim: wal open: %w", err)
		}
		if !rec.Empty() {
			log.Close()
			return nil, fmt.Errorf("sim: wal dir %s not empty", r.dir)
		}
		r.crash = &run{name: "crash", mgr: dynamic.NewManager(base.Clone(), core.Options{}).AttachWAL(log),
			st: faults.NewState(base), log: log}
	}
	for i, op := range s.Ops {
		if err := r.step(i, op); err != nil {
			if r.crash != nil {
				r.crash.log.Crash()
			}
			return nil, fmt.Errorf("sim: op %d (%s): %w", i, op.Op, err)
		}
	}
	if r.crash != nil {
		r.crash.log.Close()
	}
	for _, sess := range r.oracle.mgr.Sessions() {
		r.rep.FinalLive++
		if sess.Degraded {
			r.rep.FinalDegraded++
		}
	}
	r.rep.AdmittedCost = r.oracle.mgr.Stats().AdmittedCost
	return r.rep, nil
}

func newRunner(s *Script, base *nfv.Network, dir string) *runner {
	return &runner{
		s: s, base: base, dir: dir,
		rep:    &ScriptReport{Nodes: base.NumNodes(), Ops: len(s.Ops)},
		oracle: &run{name: "oracle", mgr: dynamic.NewManager(base.Clone(), core.Options{}), st: faults.NewState(base)},
	}
}

// step runs op i on both managers, then checks them.
func (r *runner) step(i int, op Op) error {
	if op.Op == OpFault {
		r.applied = append(r.applied, *op.Event)
	}
	if op.Op != OpCrash {
		if err := r.exec(r.oracle, op); err != nil {
			return err
		}
	}
	if c := r.crash; c != nil {
		if !op.crashes() {
			if err := r.exec(c, op); err != nil {
				return err
			}
		} else if err := r.crashAt(i, op); err != nil {
			return err
		}
	}
	r.check(i)
	return nil
}

func (r *runner) exec(x *run, op Op) error {
	switch op.Op {
	case OpAdmit:
		if _, err := x.mgr.Admit(*op.Task); err == nil && x == r.oracle {
			r.rep.Admitted++
		}
	case OpRelease:
		sessions := x.mgr.Sessions()
		if len(sessions) == 0 {
			return nil
		}
		id := sessions[min(int(op.Pick*float64(len(sessions))), len(sessions)-1)].ID
		if err := x.mgr.Release(id); err != nil {
			return fmt.Errorf("%s run: release %d: %w", x.name, id, err)
		}
	case OpFault:
		if err := x.st.Apply(*op.Event); err != nil {
			return err
		}
		degraded, err := x.st.Materialize(x.mgr.Network())
		if err != nil {
			return err
		}
		rr := x.mgr.Rebase(degraded)
		if x != r.oracle {
			return nil
		}
		r.rep.EventsApplied++
		r.rep.Affected += rr.Affected
		r.rep.Patched += rr.Patched
		r.rep.Degraded += rr.Degraded
		r.rep.CostDelta += rr.CostDelta
		for _, sr := range rr.Sessions {
			if sr.Outcome == dynamic.RepairPatched && sr.ReusedInstances > 0 {
				r.rep.RepairsWithReuse++
			}
		}
	case OpCheckpoint:
		if x.log != nil {
			if _, err := x.mgr.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return nil
}

// crashAt kills the crash run — before op i for a crash op, inside its
// commit for a mid-commit admit — and restores it from the WAL.
func (r *runner) crashAt(i int, op Op) error {
	c := r.crash
	var p *parked
	if op.Park > 0 {
		var err error
		if p, err = parkTasks(c.mgr, r.s.Seed, i, op.Park); err != nil {
			return err
		}
	}
	kill := func() {
		if op.Torn {
			c.log.CrashTorn()
		} else {
			c.log.Crash()
		}
	}
	fired := false
	if op.MidCommit {
		c.mgr.SetCrashHook(func(point string) {
			if point == "admit:post-wal" {
				fired = true
				kill()
				panic("crashed mid-commit")
			}
		})
		func() {
			defer func() {
				if v := recover(); v != nil && !fired {
					panic(v)
				}
			}()
			_, _ = c.mgr.Admit(*op.Task)
		}()
		if !fired {
			r.rep.Mismatches = append(r.rep.Mismatches,
				fmt.Sprintf("op %d: mid-commit crash did not fire (the admission did not commit)", i))
		}
	}
	kill() // idempotent after a fired hook
	if err := r.restore(i, op.Torn, fired); err != nil {
		return err
	}
	if p != nil {
		r.rep.Restores[len(r.rep.Restores)-1].ParkedAbandoned = p.abandon(i, r.rep)
	}
	return nil
}

// restore rebuilds the substrate the applied faults imply, then
// restores a manager onto it from the log. The substrate is
// materialized once per event, each from the previous result, starting
// at the pristine base — the way the oracle's was — so a pre-deployed
// instance a fault killed stays dead after its node comes back.
func (r *runner) restore(i int, torn, fired bool) error {
	st := faults.NewState(r.base)
	net, err := st.Materialize(r.base)
	if err != nil {
		return fmt.Errorf("rebuild substrate: %w", err)
	}
	for _, ev := range r.applied {
		if err := st.Apply(ev); err != nil {
			return fmt.Errorf("rebuild fault state: %w", err)
		}
		if net, err = st.Materialize(net); err != nil {
			return fmt.Errorf("rebuild substrate: %w", err)
		}
	}
	log, rec, err := wal.Open(r.dir, wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("reopen wal: %w", err)
	}
	mgr, rr, err := dynamic.Restore(net, log, rec, core.Options{})
	if err != nil {
		log.Close()
		return fmt.Errorf("restore: %w", err)
	}
	r.crash.mgr, r.crash.st, r.crash.log = mgr, st, log
	r.rep.Restores = append(r.rep.Restores, RestoreStat{
		Op: i, MidCommit: fired, SnapshotSeq: rr.SnapshotSeq, ReplayedRecords: rr.ReplayedRecords,
		TornTail: rr.TornTail, Recovered: rr.SessionsRecovered,
	})
	if torn && !rr.TornTail {
		r.rep.Mismatches = append(r.rep.Mismatches, fmt.Sprintf("op %d: torn crash did not surface a torn tail", i))
	}
	for _, e := range rr.Errors {
		r.rep.ValidationErrors = append(r.rep.ValidationErrors, Failure{Op: i, Run: "crash", Check: "restore", Err: e})
	}
	return nil
}

// check validates both runs after op i and, until they first differ,
// compares the crash run with the oracle.
func (r *runner) check(i int) {
	r.validate(i, r.oracle)
	if r.crash == nil {
		return
	}
	r.validate(i, r.crash)
	if r.rep.DivergedAt != nil {
		return
	}
	lost, mismatches := compareRuns(r.oracle.mgr, r.crash.mgr)
	if len(lost)+len(mismatches) > 0 {
		r.rep.DivergedAt = &i
		r.rep.LostSessions = lost
		for _, m := range mismatches {
			r.rep.Mismatches = append(r.rep.Mismatches, fmt.Sprintf("op %d: %s", i, m))
		}
	}
}

// validate holds every non-degraded session of x to the shared
// validator, the failed-element walk check and the flow-level replay,
// and x's refcount ledger to its sessions' usage lists.
func (r *runner) validate(i int, x *run) {
	fail := func(check, format string, a ...any) {
		r.rep.ValidationErrors = append(r.rep.ValidationErrors,
			Failure{Op: i, Run: x.name, Check: check, Err: fmt.Sprintf(format, a...)})
	}
	net := x.mgr.Network()
	for _, sess := range x.mgr.Sessions() {
		if sess.Degraded {
			continue
		}
		r.rep.Checks++
		emb := sess.Result.Embedding
		if err := conformance.CheckLive(net, emb); err != nil {
			fail("live", "session %d: %v", sess.ID, err)
			continue
		}
		for di := range emb.Walks {
			if conformance.WalkBroken(net, emb, di) {
				fail("broken", "session %d: walk %d traverses failed elements", sess.ID, di)
			}
		}
		if sim, err := Replay(net, emb); err != nil {
			fail("replay", "session %d: %v", sess.ID, err)
		} else if sim.Delivered != len(emb.Task.Destinations) {
			fail("replay", "session %d: delivered %d of %d", sess.ID, sim.Delivered, len(emb.Task.Destinations))
		}
	}
	if err := x.mgr.VerifyRefs(); err != nil {
		fail("refs", "%v", err)
	}
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
func parkTasks(mgr *dynamic.Manager, seed int64, op, n int) (*parked, error) {
	rng := rand.New(rand.NewSource(seed + 1000 + int64(op)))
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
	net := mgr.CloneNetwork()
	for i := 0; i <= n; i++ {
		task, err := netgen.GenerateTask(net, rng, 2+rng.Intn(3), 2+rng.Intn(2))
		if err != nil {
			return nil, fmt.Errorf("park task: %w", err)
		}
		tk, err := p.q.Enqueue(context.Background(), task, time.Time{})
		if err != nil {
			return nil, fmt.Errorf("park enqueue: %w", err)
		}
		if i == 0 {
			p.plug = tk
			<-wedged
		} else {
			p.tickets = append(p.tickets, tk)
		}
	}
	return p, nil
}

// abandon closes the dead queue with an already-expired drain budget
// and audits the never-lose-a-task contract across the crash: every
// parked ticket terminates with ErrClosed, the plug the solver
// held finds no manager, and the queue's books say exactly that — the
// WAL saw none of these tasks, so any session the restore resurrects
// for them surfaces as a phantom in compareRuns.
func (p *parked) abandon(op int, rep *ScriptReport) int {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p.q.Close(ctx)
	close(p.die)
	for i, tk := range p.tickets {
		sess, err := tk.Wait(context.Background())
		if sess != nil || !errors.Is(err, queue.ErrClosed) {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("op %d: parked ticket %d: sess=%v err=%v, want ErrClosed", op, i, sess, err))
		}
	}
	if sess, err := p.plug.Wait(context.Background()); sess != nil || !errors.Is(err, queue.ErrUnavailable) {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("op %d: held ticket: sess=%v err=%v, want ErrUnavailable", op, sess, err))
	}
	if st := p.q.Stats(); st.Admitted != 0 || st.Rejected != 0 ||
		st.Closed != uint64(len(p.tickets)) || st.Unavailable != 1 || st.Enqueued != st.Closed+1 {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("op %d: parked queue dispatched work: %+v", op, st))
	}
	return len(p.tickets)
}

// compareRuns diffs the two managers' committed state: each session's
// embedding bytes, cost bits, degradation mark and lost list, the
// refcount ledger, and the admission accounting. The rejected counter
// is deliberately excluded: rejections do not commit, so a crash may
// lose rejections recorded since the last snapshot without losing any
// committed state.
func compareRuns(oracle, crashed *dynamic.Manager) (lost []int, mismatches []string) {
	got := make(map[dynamic.SessionID]string)
	for _, sess := range crashed.Sessions() {
		got[sess.ID] = sessionState(sess)
	}
	for _, want := range oracle.Sessions() {
		state, ok := got[want.ID]
		delete(got, want.ID)
		switch {
		case !ok:
			lost = append(lost, int(want.ID))
		case state != sessionState(want):
			mismatches = append(mismatches, fmt.Sprintf("session %d: embedding, cost or degradation diverged", want.ID))
		}
	}
	for id := range got {
		mismatches = append(mismatches, fmt.Sprintf("session %d: phantom (absent in oracle)", id))
	}
	sort.Strings(mismatches)
	if orefs, crefs := oracle.Refs(), crashed.Refs(); !maps.Equal(orefs, crefs) {
		mismatches = append(mismatches, fmt.Sprintf("refcount ledger %v vs %v", orefs, crefs))
	}
	if o, c := oracle.Stats(), crashed.Stats(); o.Admitted != c.Admitted || o.Active != c.Active || o.AdmittedCost != c.AdmittedCost {
		mismatches = append(mismatches, fmt.Sprintf("admitted/active/cost %d/%d/%v vs %d/%d/%v (cost must match to the bit)",
			o.Admitted, o.Active, o.AdmittedCost, c.Admitted, c.Active, c.AdmittedCost))
	}
	return lost, mismatches
}

// sessionState encodes what a restore must reproduce of a session.
func sessionState(sess *dynamic.Session) string {
	b, err := json.Marshal(struct {
		Emb      *nfv.Embedding
		Cost     uint64
		Degraded bool
		Lost     []int
	}{sess.Result.Embedding, math.Float64bits(sess.Result.FinalCost), sess.Degraded, sess.Lost})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}
