package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/faults"
	"sftree/internal/nfv"
)

func generate(t *testing.T, cfg GenConfig) *Script {
	t.Helper()
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runScript(t *testing.T, s *Script) *ScriptReport {
	t.Helper()
	base, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(base, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// requirePassed fails the test on any check failure or divergence, and
// on a scripted mid-commit crash that did not fire.
func requirePassed(t *testing.T, s *Script, rep *ScriptReport) {
	t.Helper()
	for _, f := range rep.ValidationErrors {
		t.Error(f)
	}
	if !rep.Passed() {
		t.Fatalf("gate failed: lost=%v mismatches=%v", rep.LostSessions, rep.Mismatches)
	}
	scripted, fired := 0, 0
	for _, op := range s.Ops {
		if op.MidCommit {
			scripted++
		}
	}
	for _, rs := range rep.Restores {
		if rs.MidCommit {
			fired++
		}
	}
	if fired != scripted {
		t.Fatalf("%d of %d mid-commit crashes fired: %+v", fired, scripted, rep.Restores)
	}
}

// crashScript is the seed-11 script the crash tests share (12 admits,
// 25 mixed ops, 5 faults) with extra ops spliced in: before[i] runs
// ahead of op i, and a mid-commit crash rides on op m for every m in
// midCommit (it must be an admit).
func crashScript(t *testing.T, before map[int][]Op, midCommit map[int]Op) *Script {
	t.Helper()
	s := generate(t, GenConfig{Nodes: 30, Seed: 11, Sessions: 12, Ops: 25, Faults: 5})
	var ops []Op
	for i, op := range s.Ops {
		ops = append(ops, before[i]...)
		if mc, ok := midCommit[i]; ok {
			if op.Op != OpAdmit {
				t.Fatalf("op %d is a %s, not an admit", i, op.Op)
			}
			op.MidCommit, op.Torn, op.Park = true, mc.Torn, mc.Park
		}
		ops = append(ops, op)
	}
	s.Ops = ops
	return s
}

// TestChaosAcceptance runs the chaos gate at the sizes the acceptance
// criteria name: >=20 faults over >=30 live sessions, zero validation
// errors on every non-degraded session after every op, and repairs
// reusing surviving instances.
func TestChaosAcceptance(t *testing.T) {
	s := generate(t, GenConfig{Nodes: 40, Seed: 7, Sessions: 30, Faults: 20})
	rep := runScript(t, s)
	requirePassed(t, s, rep)
	if rep.Admitted < 30 || rep.EventsApplied < 20 {
		t.Fatalf("undersized run: %d sessions, %d events", rep.Admitted, rep.EventsApplied)
	}
	if rep.Affected == 0 {
		t.Fatal("no session was ever affected; the schedule exercised nothing")
	}
	if rep.Patched == 0 || rep.RepairsWithReuse == 0 {
		t.Fatalf("%d patched, %d reused a surviving instance", rep.Patched, rep.RepairsWithReuse)
	}
	if rep.FinalLive != rep.Admitted {
		t.Fatalf("sessions vanished: %d live of %d admitted", rep.FinalLive, rep.Admitted)
	}
}

// TestChaosIsSeeded: same config, same script, same report.
func TestChaosIsSeeded(t *testing.T) {
	cfg := GenConfig{Nodes: 30, Seed: 3, Sessions: 10, Ops: 10, Faults: 8}
	a, b := runScript(t, generate(t, cfg)), runScript(t, generate(t, cfg))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestChaosWithExplicitSchedule runs hand-written scripts: admits
// alone break nothing, and one fault op applies one event.
func TestChaosWithExplicitSchedule(t *testing.T) {
	s := generate(t, GenConfig{Nodes: 30, Seed: 5, Sessions: 5})
	rep := runScript(t, s)
	requirePassed(t, s, rep)
	if rep.EventsApplied != 0 || rep.Affected != 0 || rep.Admitted != 5 || rep.Checks != 15 {
		t.Fatalf("fault-free script: %+v", rep)
	}
	ev := faults.Event{Kind: faults.InstanceDown, VNF: 0, Node: 0}
	s.Ops = append(s.Ops, Op{Op: OpFault, Event: &ev}, Op{Op: OpRelease, Pick: 0.5})
	rep = runScript(t, s)
	requirePassed(t, s, rep)
	if rep.EventsApplied != 1 || rep.FinalLive != 4 {
		t.Fatalf("one fault, one release: %+v", rep)
	}
}

func TestCrashGatePasses(t *testing.T) {
	s := crashScript(t, map[int][]Op{
		8:  {{Op: OpCheckpoint}},
		15: {{Op: OpCrash, Torn: true}}, // between ops, tearing the active tail
		16: {{Op: OpCheckpoint}},
	}, map[int]Op{22: {}}) // inside the commit critical section
	rep := runScript(t, s)
	requirePassed(t, s, rep)
	if len(rep.Restores) != 2 {
		t.Fatalf("restores: %+v", rep.Restores)
	}
	if !rep.Restores[0].TornTail {
		t.Fatalf("torn crash did not surface a torn tail: %+v", rep.Restores[0])
	}
	// The checkpoint before op 16 precedes the second crash, so that
	// restore must recover from snapshot + tail, not full replay.
	if rep.Restores[1].SnapshotSeq == 0 {
		t.Fatalf("second restore ignored the snapshot: %+v", rep.Restores[1])
	}
	if rep.Admitted == 0 || rep.FinalLive == 0 {
		t.Fatalf("degenerate oracle run: %+v", rep)
	}
}

// TestCrashTornDoubleCrash: a torn crash followed, one op later, by
// another crash with no snapshot in between. The tear from the first
// crash must be truncated during the first recovery, or the second
// recovery finds a partial frame in what is by then a non-final
// segment and refuses to start (losing every committed record behind
// it). The last crash tears the log mid-commit.
func TestCrashTornDoubleCrash(t *testing.T) {
	s := crashScript(t, map[int][]Op{
		10: {{Op: OpCrash, Torn: true}},
		11: {{Op: OpCrash}},
	}, map[int]Op{22: {Torn: true}})
	rep := runScript(t, s)
	requirePassed(t, s, rep)
	if len(rep.Restores) != 3 {
		t.Fatalf("restores: %+v", rep.Restores)
	}
	if !rep.Restores[0].TornTail || !rep.Restores[2].TornTail {
		t.Fatalf("torn crashes did not surface torn tails: %+v", rep.Restores)
	}
}

// TestCrashWithParkedQueue kills the process while an admission queue
// holds accepted-but-undispatched tasks, at both crash flavors (between
// ops and mid-commit). Queued work is not durable, so the restore may
// resurrect none of it, and every parked ticket must still terminate
// with ErrClosed.
func TestCrashWithParkedQueue(t *testing.T) {
	s := crashScript(t, map[int][]Op{
		8:  {{Op: OpCheckpoint}},
		14: {{Op: OpCrash, Park: 4}},
		16: {{Op: OpCheckpoint}},
	}, map[int]Op{22: {Park: 3}})
	rep := runScript(t, s)
	requirePassed(t, s, rep)
	if len(rep.Restores) != 2 {
		t.Fatalf("restores: %+v", rep.Restores)
	}
	if rep.Restores[0].ParkedAbandoned != 4 || rep.Restores[1].ParkedAbandoned != 3 {
		t.Fatalf("parked tickets not audited: %+v", rep.Restores)
	}
}

// TestConsecutiveCrashesRestoreTwice: two crash ops in a row are two
// kills and two restores, and a crash as the script's last op still
// runs.
func TestConsecutiveCrashesRestoreTwice(t *testing.T) {
	s := crashScript(t, map[int][]Op{10: {{Op: OpCrash}, {Op: OpCrash, Torn: true}}}, nil)
	s.Ops = append(s.Ops, Op{Op: OpCrash})
	rep := runScript(t, s)
	requirePassed(t, s, rep)
	if len(rep.Restores) != 3 || rep.Restores[0].Op != 10 || rep.Restores[1].Op != 11 || rep.Restores[2].Op != len(s.Ops)-1 {
		t.Fatalf("restores: %+v", rep.Restores)
	}
}

// TestUnfiredMidCommitFailsRun: a mid-commit crash on an admission
// that never reaches its commit still kills and restores, reports the
// hook as not fired, and fails the run naming the op.
func TestUnfiredMidCommitFailsRun(t *testing.T) {
	s := crashScript(t, nil, nil)
	bad := Op{Op: OpAdmit, Task: &nfv.Task{Source: 0, Destinations: []int{s.Nodes}, Chain: []int{0}}, MidCommit: true}
	s.Ops = append(s.Ops[:5:5], append([]Op{bad}, s.Ops[5:]...)...)
	rep := runScript(t, s)
	if rep.Passed() || len(rep.Restores) != 1 || rep.Restores[0].MidCommit {
		t.Fatalf("unfired mid-commit crash: %+v", rep)
	}
	if want := "op 5: mid-commit crash did not fire"; len(rep.Mismatches) != 1 || !strings.HasPrefix(rep.Mismatches[0], want) {
		t.Fatalf("mismatches %q, want one starting %q", rep.Mismatches, want)
	}
}

func TestCrashIsDeterministic(t *testing.T) {
	s := crashScript(t, map[int][]Op{10: {{Op: OpCrash}}}, nil)
	a, b := runScript(t, s), runScript(t, s)
	requirePassed(t, s, a)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

// TestRecoverGateMidCommitFires runs the recover gate's shape over
// seeds 1–10 and three more: every generated mid-commit crash must land
// on an admission that reaches its commit, and every run must pass.
// Seed 33 diverged while a restore materialized its substrate once from
// the base, reviving a pre-deployed instance a node_down had killed
// after its node came back; seeds 76 and 92 failed while Rebase judged
// a session only after the repairs of lower-ID sessions.
func TestRecoverGateMidCommitFires(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 33, 76, 92} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := generate(t, GenConfig{Nodes: 30, Seed: seed, Sessions: 12, Ops: 30, Faults: 5, Crashes: 2})
			rep := runScript(t, s)
			requirePassed(t, s, rep)
			if len(rep.Restores) < 3 {
				t.Fatalf("restores: %+v", rep.Restores)
			}
		})
	}
}

// TestCompareNamesFirstDivergentOp gives the per-op comparison two
// managers that differ by one release at op k.
func TestCompareNamesFirstDivergentOp(t *testing.T) {
	const k = 7
	s := generate(t, GenConfig{Nodes: 30, Seed: 5, Sessions: 12})
	base, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(s, base, "")
	r.crash = &run{name: "crash", mgr: dynamic.NewManager(base.Clone(), core.Options{}), st: faults.NewState(base)}
	var released dynamic.SessionID
	for i, op := range s.Ops {
		if err := r.exec(r.oracle, op); err != nil {
			t.Fatal(err)
		}
		if err := r.exec(r.crash, op); err != nil {
			t.Fatal(err)
		}
		if i == k {
			released = r.crash.mgr.Sessions()[0].ID
			if err := r.crash.mgr.Release(released); err != nil {
				t.Fatal(err)
			}
		}
		r.check(i)
	}
	if r.rep.DivergedAt == nil || *r.rep.DivergedAt != k {
		t.Fatalf("diverged at %v, want op %d", r.rep.DivergedAt, k)
	}
	if len(r.rep.LostSessions) != 1 || r.rep.LostSessions[0] != int(released) {
		t.Fatalf("lost sessions %v, want [%d]", r.rep.LostSessions, released)
	}
	for _, m := range r.rep.Mismatches {
		if !strings.HasPrefix(m, fmt.Sprintf("op %d: ", k)) {
			t.Fatalf("mismatch does not name op %d: %q", k, m)
		}
	}
	if len(r.rep.ValidationErrors) != 0 {
		t.Fatalf("both runs are valid, yet: %v", r.rep.ValidationErrors)
	}
}

// TestValidateNamesCorruptedSession corrupts one hop of a live
// session's walk and requires the per-op check to name that session
// and op.
func TestValidateNamesCorruptedSession(t *testing.T) {
	const k = 4
	s := generate(t, GenConfig{Nodes: 30, Seed: 5, Sessions: k + 1})
	base, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(s, base, "")
	for i, op := range s.Ops {
		if err := r.exec(r.oracle, op); err != nil {
			t.Fatal(err)
		}
		if i < k {
			r.check(i)
		}
	}
	if len(r.rep.ValidationErrors) != 0 {
		t.Fatalf("clean ops failed: %v", r.rep.ValidationErrors)
	}
	sess := r.oracle.mgr.Sessions()[1]
	net := r.oracle.mgr.Network()
corrupt:
	for _, walk := range sess.Result.Embedding.Walks {
		for _, seg := range walk {
			if len(seg.Path) < 2 {
				continue
			}
			for v := 0; v < net.NumNodes(); v++ {
				if _, ok := net.Graph().HasEdge(seg.Path[0], v); !ok && v != seg.Path[0] {
					seg.Path[1] = v
					break corrupt
				}
			}
		}
	}
	r.check(k)
	want := fmt.Sprintf("session %d:", sess.ID)
	if len(r.rep.ValidationErrors) == 0 {
		t.Fatal("a walk over a non-edge passed the per-op check")
	}
	for _, f := range r.rep.ValidationErrors {
		if f.Op != k || f.Run != "oracle" || !strings.HasPrefix(f.Err, want) {
			t.Fatalf("failure %v does not name op %d and %s", f, k, want)
		}
	}
}

// TestScriptJSONRoundTrip: a generated script survives a JSON round
// trip unchanged and runs to the same report; malformed ops are
// refused before anything runs.
func TestScriptJSONRoundTrip(t *testing.T) {
	s := generate(t, GenConfig{Nodes: 30, Seed: 4, Sessions: 6, Ops: 12, Faults: 4, Crashes: 2})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Script
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Fatal("script changed in the round trip")
	}
	if a, b := runScript(t, s), runScript(t, &back); !reflect.DeepEqual(a, b) {
		t.Fatalf("decoded script ran differently:\n%+v\n%+v", a, b)
	}
	base, err := s.Network()
	if err != nil {
		t.Fatal(err)
	}
	ev := faults.Event{Kind: faults.LinkDown, U: 0, V: 1}
	for _, op := range []Op{
		{Op: "meteor"},
		{Op: OpAdmit},
		{Op: OpFault, Event: &ev, MidCommit: true},
		{Op: OpRelease, Torn: true},
		{Op: OpCheckpoint, Park: 2},
		{Op: OpCrash, Park: -1},
		{Op: OpCrash, Pick: 0.5},
		{Op: OpRelease, Pick: 1},
	} {
		if _, err := (&Script{Ops: []Op{op}}).Run(base, ""); err == nil {
			t.Errorf("malformed op %+v accepted", op)
		}
	}
}
