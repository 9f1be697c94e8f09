package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

// repairNet builds the 5-node repair fixture:
//
//	0 --1-- 1 --1-- 3
//	 \      |
//	  5     1
//	   \    |
//	    `-- 4
//
// Edges: 0-1 (1), 1-3 (1), 1-4 (1), 0-4 (5). The only server is node 1
// (capacity cap), single VNF with unit setup. A session S=0 -> {3,4}
// with chain {0} embeds an instance at 1 and fans out 1-3 and 1-4.
func repairNet(t *testing.T, cap float64) *nfv.Network {
	t.Helper()
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(1, 4, 1)
	g.MustAddEdge(0, 4, 5)
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f0", Demand: 1}})
	if err := net.SetServer(1, cap); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSetupCost(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	return net
}

// rebaseAfter applies the events to a fresh fault state over base and
// rebases the manager onto the materialized degraded network.
func rebaseAfter(t *testing.T, m *Manager, base *nfv.Network, events ...faults.Event) *RepairReport {
	t.Helper()
	st := faults.NewState(base)
	for _, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatalf("apply %v: %v", ev, err)
		}
	}
	degraded, err := st.Materialize(m.Network())
	if err != nil {
		t.Fatal(err)
	}
	return m.Rebase(degraded)
}

func TestRepairPatchesSeveredDestinationReusingInstance(t *testing.T) {
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{})
	sess, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}

	// Cut 1-4: destination 4 is severed but still reachable via 0-4;
	// destination 3 and the instance at node 1 survive.
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.LinkDown, U: 1, V: 4})
	if rep.Checked != 1 || rep.Affected != 1 || rep.Patched != 1 {
		t.Fatalf("report %+v, want one patched session", rep)
	}
	sr := rep.Sessions[0]
	if sr.Outcome != RepairPatched {
		t.Fatalf("outcome %q (err %q), want patched", sr.Outcome, sr.Err)
	}
	if sr.ReusedInstances < 1 {
		t.Fatalf("patch reused %d instances, want >=1 (the survivor at node 1)", sr.ReusedInstances)
	}
	if len(sr.Lost) != 0 || sess.Degraded {
		t.Fatalf("nothing should be lost: %+v degraded=%v", sr, sess.Degraded)
	}
	// The repaired embedding must hold up under the core validator.
	if err := m.Network().ValidateDeployed(sess.Result.Embedding); err != nil {
		t.Fatalf("repaired embedding invalid: %v", err)
	}
	// Both destinations are still served.
	if got := sess.Result.Embedding.Task.Destinations; len(got) != 2 {
		t.Fatalf("serving %v, want both destinations", got)
	}
	// Refcounts survived the repair: releasing cleans up fully.
	if err := m.Release(sess.ID); err != nil {
		t.Fatal(err)
	}
	if m.LiveInstances() != 0 {
		t.Fatalf("instances leak after release: %d", m.LiveInstances())
	}
}

func TestRepairDegradesUnreachableDestination(t *testing.T) {
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{})
	sess, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}

	// Cut both 1-4 and 0-4: destination 4 is unreachable, destination 3
	// keeps its intact walk.
	rep := rebaseAfter(t, m, base,
		faults.Event{Kind: faults.LinkDown, U: 1, V: 4},
		faults.Event{Kind: faults.LinkDown, U: 0, V: 4})
	if rep.Affected != 1 || rep.Degraded != 1 {
		t.Fatalf("report %+v, want one degraded session", rep)
	}
	if !sess.Degraded {
		t.Fatal("session not marked degraded")
	}
	if len(sess.Lost) != 1 || sess.Lost[0] != 4 {
		t.Fatalf("lost %v, want [4]", sess.Lost)
	}
	got := sess.Result.Embedding.Task.Destinations
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("serving %v, want [3]", got)
	}
	// The partial embedding it still serves must validate.
	if err := m.Network().ValidateDeployed(sess.Result.Embedding); err != nil {
		t.Fatalf("degraded embedding invalid: %v", err)
	}
}

func TestRepairFullyDegradedSessionFreesInstances(t *testing.T) {
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{})
	sess, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}

	// Crash node 1 — the only server. Every walk and the instance die;
	// no repair is possible.
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.NodeDown, Node: 1})
	if rep.Degraded != 1 || rep.PurgedInstances != 1 {
		t.Fatalf("report %+v, want one degraded session and one purged instance", rep)
	}
	if !sess.Degraded || len(sess.Result.Embedding.Task.Destinations) != 0 {
		t.Fatalf("session should serve nothing: degraded=%v serving=%v",
			sess.Degraded, sess.Result.Embedding.Task.Destinations)
	}
	if m.LiveInstances() != 0 {
		t.Fatalf("dead instances still referenced: %d", m.LiveInstances())
	}
	// A fully degraded session can still be released cleanly (the
	// release-after-fault ordering the refcount guard protects).
	if err := m.Release(sess.ID); err != nil {
		t.Fatalf("release after fault: %v", err)
	}
	if m.Active() != 0 {
		t.Fatalf("active=%d after release", m.Active())
	}
}

func TestRepairSurvivorsUnaffected(t *testing.T) {
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{})
	// Session A serves only 3, session B serves only 4: the 1-4 cut
	// touches B alone.
	a, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{4}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.LinkDown, U: 1, V: 4})
	if rep.Checked != 2 || rep.Affected != 1 {
		t.Fatalf("report %+v, want 2 checked / 1 affected", rep)
	}
	if rep.Sessions[0].ID != b.ID {
		t.Fatalf("repaired session %d, want %d", rep.Sessions[0].ID, b.ID)
	}
	for _, sess := range []*Session{a, b} {
		if err := m.Network().ValidateDeployed(sess.Result.Embedding); err != nil {
			t.Fatalf("session %d invalid after rebase: %v", sess.ID, err)
		}
	}
	// The shared instance at node 1 is still referenced by both: the
	// first release keeps it, the second tears it down.
	if err := m.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if m.LiveInstances() != 1 {
		t.Fatalf("shared instance dropped early: %d live", m.LiveInstances())
	}
	if err := m.Release(b.ID); err != nil {
		t.Fatal(err)
	}
	if m.LiveInstances() != 0 {
		t.Fatalf("instances leak: %d", m.LiveInstances())
	}
}

func TestRepairInstanceKillRedeploys(t *testing.T) {
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{})
	sess, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the instance at node 1 without touching topology: the
	// repair must re-install there (the only server) and re-validate.
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.InstanceDown, VNF: 0, Node: 1})
	if rep.Affected != 1 || rep.PurgedInstances != 1 {
		t.Fatalf("report %+v", rep)
	}
	sr := rep.Sessions[0]
	if sr.Outcome == RepairDegraded {
		t.Fatalf("repair failed: %+v", sr)
	}
	if sr.NewInstances != 1 {
		t.Fatalf("new instances %d, want 1 (re-install at node 1)", sr.NewInstances)
	}
	if !m.Network().IsDeployed(0, 1) {
		t.Fatal("instance not re-installed")
	}
	if err := m.Network().ValidateDeployed(sess.Result.Embedding); err != nil {
		t.Fatalf("repaired embedding invalid: %v", err)
	}
	if err := m.Release(sess.ID); err != nil {
		t.Fatal(err)
	}
	if m.LiveInstances() != 0 || m.Network().IsDeployed(0, 1) {
		t.Fatal("re-installed instance leaked after release")
	}
}

func TestRepairCostDeltaAndMetrics(t *testing.T) {
	base := repairNet(t, 2)
	reg := obs.NewRegistry()
	m := NewManager(base, core.Options{}).Instrument(reg)
	if _, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}}); err != nil {
		t.Fatal(err)
	}
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.LinkDown, U: 1, V: 4})
	// Rerouting 4 over the cost-5 edge is pricier than the lost unit
	// edge: the delta must be positive and mirrored in the histogram.
	if rep.CostDelta <= 0 {
		t.Fatalf("cost delta %v, want > 0 (detour via 0-4 costs more)", rep.CostDelta)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["repair_attempts"]; got != 1 {
		t.Fatalf("repair_attempts = %d", got)
	}
	if got := snap.Counters["repair_failures"]; got != 0 {
		t.Fatalf("repair_failures = %d", got)
	}
	if got := snap.Histograms["repair_cost_delta"].Count; got != 1 {
		t.Fatalf("repair_cost_delta count = %d", got)
	}
	if got, ok := snap.Gauges["sessions_degraded"]; !ok || got != 0 {
		t.Fatalf("sessions_degraded = %d (served: %v)", got, ok)
	}
}

func TestRepairManySessionsOnGeneratedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base, err := netgen.Generate(netgen.PaperConfig(40, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(base, core.Options{})
	admitted := 0
	for i := 0; admitted < 12 && i < 60; i++ {
		task, err := netgen.GenerateTask(base, rng, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Admit(task); err == nil {
			admitted++
		}
	}
	if admitted < 12 {
		t.Fatalf("only %d sessions admitted", admitted)
	}
	events, err := faults.Generate(base, faults.DefaultGenConfig(10), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	st := faults.NewState(base)
	for _, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
		degraded, err := st.Materialize(m.Network())
		if err != nil {
			t.Fatal(err)
		}
		m.Rebase(degraded)
		// Invariant after every event: all non-degraded sessions
		// validate on the current network.
		for _, sess := range m.Sessions() {
			if sess.Degraded {
				continue
			}
			if err := m.Network().ValidateDeployed(sess.Result.Embedding); err != nil {
				t.Fatalf("session %d invalid after rebase: %v", sess.ID, err)
			}
		}
	}
	// Teardown must stay clean after arbitrary fault churn.
	for _, sess := range m.Sessions() {
		if err := m.Release(sess.ID); err != nil {
			t.Fatalf("release %d: %v", sess.ID, err)
		}
	}
	if m.Active() != 0 || m.LiveInstances() != 0 {
		t.Fatalf("post-teardown active=%d instances=%d", m.Active(), m.LiveInstances())
	}
}

// TestDegradedGaugeMatchesRecount: sessions_degraded is kept by the
// ledger writers, not recounted per commit. Through a seeded chaos
// script — faults that degrade sessions and heal them, releases of
// degraded and healthy sessions, fresh admissions, a checkpoint and a
// restore from it — the gauge and the manager's count must equal a
// walk over the sessions after every commit.
func TestDegradedGaugeMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base, err := netgen.Generate(netgen.PaperConfig(40, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, _ := openWAL(t, dir)
	reg := obs.NewRegistry()
	m := NewManager(base.Clone(), core.Options{}).Instrument(reg).AttachWAL(l)
	seen, checkpointed := 0, false
	check := func(m *Manager, reg *obs.Registry, after string) {
		t.Helper()
		recount := 0
		for _, sess := range m.Sessions() {
			if sess.Degraded {
				recount++
			}
		}
		seen = max(seen, recount)
		if got := reg.Snapshot().Gauges["sessions_degraded"]; got != int64(recount) || m.degraded != recount {
			t.Fatalf("after %s: sessions_degraded = %d, manager counts %d, %d sessions are degraded", after, got, m.degraded, recount)
		}
	}
	admit := func(m *Manager) {
		t.Helper()
		task, err := netgen.GenerateTask(base, rng, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		m.Admit(task) // a rejection on the degraded topology commits nothing
	}
	for m.Active() < 14 {
		admit(m)
	}
	check(m, reg, "the admissions")
	events, err := faults.Generate(base, faults.DefaultGenConfig(16), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	st := faults.NewState(base)
	for step, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
		degraded, err := st.Materialize(m.Network())
		if err != nil {
			t.Fatal(err)
		}
		m.Rebase(degraded)
		check(m, reg, "a rebase")
		if m.degraded > 0 && !checkpointed {
			// The snapshot a restore will load holds a degraded session.
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkpointed = true
		}
		live := m.Sessions()
		victim := live[rng.Intn(len(live))]
		for _, sess := range live {
			if sess.Degraded && step%2 == 0 {
				victim = sess // every other step, a degraded one if there is any
			}
		}
		if err := m.Release(victim.ID); err != nil {
			t.Fatal(err)
		}
		check(m, reg, "a release")
		admit(m)
		check(m, reg, "an admission")
	}
	if seen == 0 || !checkpointed {
		t.Fatal("the script degraded no session: the test checks nothing")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restored from the checkpoint and the records behind it, onto the
	// topology the script ended on.
	l2, rec := openWAL(t, dir)
	defer l2.Close()
	m2, _, err := Restore(m.Network().Clone(), l2, rec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(rec.Snapshot.Sessions, func(ss wal.SessionState) bool { return ss.Degraded }) {
		t.Fatal("the snapshot holds no degraded session: loading one is not covered")
	}
	reg2 := obs.NewRegistry()
	m2.Instrument(reg2)
	admit(m2)
	for _, sess := range m2.Sessions()[:3] {
		if err := m2.Release(sess.ID); err != nil {
			t.Fatal(err)
		}
	}
	check(m2, reg2, "a restore")
}
