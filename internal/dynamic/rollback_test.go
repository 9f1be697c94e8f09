package dynamic

import (
	"errors"
	"testing"

	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/nfv"
)

// TestRollbackStopsAtFailedInstance drives the mid-admission rollback:
// when the i-th Deploy of a commit fails, every instance installed
// before it must be undeployed, the ones after it never installed, and
// the admission rejected with the ledger untouched.
func TestRollbackStopsAtFailedInstance(t *testing.T) {
	good := []nfv.Instance{
		{VNF: 0, Node: 1, Level: 1},
		{VNF: 1, Node: 1, Level: 2},
		{VNF: 0, Node: 2, Level: 1},
	}
	for failAt, name := range []string{"first deploy fails", "middle deploy fails", "last deploy fails"} {
		t.Run(name, func(t *testing.T) {
			net := lineNet(t, 4)
			m := NewManager(net, core.Options{})
			insts := append([]nfv.Instance(nil), good...)
			insts[failAt].Node = 0 // a switch: Deploy refuses it
			task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0, 1}}
			res := &core.Result{Embedding: &nfv.Embedding{Task: task, NewInstances: insts}}
			m.mu.Lock()
			_, err := m.commitLocked(res, false)
			m.mu.Unlock()
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("commit with an uninstallable instance: %v", err)
			}
			for i, inst := range good {
				if net.IsDeployed(inst.VNF, inst.Node) {
					t.Errorf("instance %d (%+v) still deployed after rollback", i, inst)
				}
			}
			if used := net.UsedCapacity(1) + net.UsedCapacity(2); used != 0 {
				t.Errorf("capacity leak after rollback: %v in use", used)
			}
			if st := m.Stats(); st.Active != 0 || st.Admitted != 0 || st.Rejected != 1 || m.LiveInstances() != 0 {
				t.Errorf("failed commit left a mark: %+v, %d instances", st, m.LiveInstances())
			}
		})
	}
}

// TestReleaseNeverRemovesForeignInstances: instances deployed outside
// the manager (pre-provisioned or by an operator) are reused for free
// at admission but are not the manager's to undeploy on release.
func TestReleaseNeverRemovesForeignInstances(t *testing.T) {
	net := lineNet(t, 1) // capacity 1: one instance per server
	m := NewManager(net, core.Options{})
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0, 1}}
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Deploy(1, 2); err != nil {
		t.Fatal(err)
	}
	sess, err := m.Admit(task)
	if err != nil {
		t.Fatalf("admission reusing externally deployed instances: %v", err)
	}
	if len(sess.Result.Embedding.NewInstances) != 0 {
		t.Fatalf("expected pure reuse, got new instances %v", sess.Result.Embedding.NewInstances)
	}
	if err := m.Release(sess.ID); err != nil {
		t.Fatal(err)
	}
	if !net.IsDeployed(0, 1) || !net.IsDeployed(1, 2) {
		t.Fatal("release removed instances the manager does not own")
	}
}

// TestReleaseEdgeCases table-drives the teardown paths: double release,
// release after a fault purged the session's instances, and release
// ordering of sessions sharing instances across a fault.
func TestReleaseEdgeCases(t *testing.T) {
	task := nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}}
	cases := []struct {
		name string
		run  func(t *testing.T, m *Manager, base *nfv.Network)
	}{
		{"double release", func(t *testing.T, m *Manager, base *nfv.Network) {
			sess, err := m.Admit(task)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Release(sess.ID); err != nil {
				t.Fatal(err)
			}
			if err := m.Release(sess.ID); !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("second release = %v, want ErrUnknownSession", err)
			}
			if m.Active() != 0 || m.LiveInstances() != 0 {
				t.Fatalf("state damaged: active=%d instances=%d", m.Active(), m.LiveInstances())
			}
		}},
		{"release after fault purge", func(t *testing.T, m *Manager, base *nfv.Network) {
			sess, err := m.Admit(task)
			if err != nil {
				t.Fatal(err)
			}
			// Node 1 crashes: the session's only instance dies with it
			// and its references are purged. Release must not decrement
			// into a phantom negative count or attempt an undeploy.
			rebaseAfter(t, m, base, faults.Event{Kind: faults.NodeDown, Node: 1})
			if err := m.Release(sess.ID); err != nil {
				t.Fatalf("release after purge: %v", err)
			}
			if m.Active() != 0 || m.LiveInstances() != 0 {
				t.Fatalf("active=%d instances=%d", m.Active(), m.LiveInstances())
			}
		}},
		{"shared instance, fault, then both released", func(t *testing.T, m *Manager, base *nfv.Network) {
			s1, err := m.Admit(task)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := m.Admit(task)
			if err != nil {
				t.Fatal(err)
			}
			rebaseAfter(t, m, base, faults.Event{Kind: faults.NodeDown, Node: 1})
			// Both sessions lost everything; releases in either order
			// must be clean no-ops on the instance table.
			for _, id := range []SessionID{s2.ID, s1.ID} {
				if err := m.Release(id); err != nil {
					t.Fatalf("release %d: %v", id, err)
				}
			}
			if m.LiveInstances() != 0 {
				t.Fatalf("instances leak: %d", m.LiveInstances())
			}
		}},
		{"fault then repair then release", func(t *testing.T, m *Manager, base *nfv.Network) {
			sess, err := m.Admit(task)
			if err != nil {
				t.Fatal(err)
			}
			// Link cut with a feasible detour: the session is patched,
			// its refcounts re-derived; release must still be exact.
			rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.LinkDown, U: 1, V: 4})
			if rep.Affected != 1 {
				t.Fatalf("report %+v", rep)
			}
			if err := m.Release(sess.ID); err != nil {
				t.Fatal(err)
			}
			if m.LiveInstances() != 0 {
				t.Fatalf("instances leak after repaired release: %d", m.LiveInstances())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := repairNet(t, 2)
			m := NewManager(base, core.Options{})
			tc.run(t, m, base)
		})
	}
}
