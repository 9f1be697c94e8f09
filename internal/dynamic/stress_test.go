package dynamic

import (
	"reflect"
	"sync"
	"testing"

	"math/rand"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// checkIntegrity asserts the manager's reference counts are exactly
// the per-instance sums of the live sessions' usage lists, and that
// every counted instance is actually deployed. Call only when no
// operation is in flight.
func checkIntegrity(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	want := make(map[[2]int]int)
	for _, sess := range m.sessions {
		for _, key := range sess.uses {
			want[key]++
		}
	}
	if !reflect.DeepEqual(want, m.refs) {
		t.Errorf("refcount conservation violated:\n  refs     = %v\n  from uses = %v", m.refs, want)
	}
	for key, n := range m.refs {
		if n <= 0 {
			t.Errorf("non-positive refcount %d for %v", n, key)
		}
		if !m.net.IsDeployed(key[0], key[1]) {
			t.Errorf("refs holds %v but the instance is not deployed", key)
		}
	}
}

// TestStressAdmitReleaseRebase hammers the optimistic admission path
// from many goroutines while a flapper concurrently fails and restores
// a link via Rebase — run with -race. Afterwards: no session may be
// lost, reference counts must be conserved, every live non-degraded
// session must re-validate on the final network, and releasing
// everything must leave the network clean.
func TestStressAdmitReleaseRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net, err := netgen.Generate(netgen.PaperConfig(40, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	// A narrow task mix repeats (source, chain) signatures across
	// goroutines, so the scaffold cache sees same-version concurrent
	// lookups, not just misses.
	const workers = 8
	const perWorker = 8
	tasks := make([][]nfv.Task, workers)
	for wi := range tasks {
		tasks[wi] = make([]nfv.Task, perWorker)
		for i := range tasks[wi] {
			task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
			if err != nil {
				t.Fatal(err)
			}
			tasks[wi][i] = task
		}
	}
	m := NewManager(net, core.Options{})
	st := faults.NewState(net)
	edge := net.Graph().Edge(0)

	stop := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		down := false
		for {
			select {
			case <-stop:
				if down {
					// Restore the link so the final validation runs against
					// the healed topology.
					_ = st.Apply(faults.Event{Kind: faults.LinkUp, U: edge.U, V: edge.V})
					if deg, err := st.Materialize(m.CloneNetwork()); err == nil {
						m.Rebase(deg)
					}
				}
				return
			default:
			}
			kind := faults.LinkDown
			if down {
				kind = faults.LinkUp
			}
			if err := st.Apply(faults.Event{Kind: kind, U: edge.U, V: edge.V}); err != nil {
				continue
			}
			down = !down
			// Materialize from a consistent snapshot (the live network
			// mutates concurrently) and rebase the manager onto it.
			if deg, err := st.Materialize(m.CloneNetwork()); err == nil {
				m.Rebase(deg)
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	live := make(map[SessionID]bool)
	admitted, released := 0, 0
	errs := make(chan error, workers*perWorker)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i, task := range tasks[wi] {
				sess, err := m.Admit(task)
				if err != nil {
					continue // rejection under contention is legitimate
				}
				mu.Lock()
				admitted++
				mu.Unlock()
				if i%2 == 0 {
					if err := m.Release(sess.ID); err != nil {
						errs <- err
						continue
					}
					mu.Lock()
					released++
					mu.Unlock()
				} else {
					mu.Lock()
					live[sess.ID] = true
					mu.Unlock()
				}
			}
		}(wi)
	}
	wg.Wait()
	close(stop)
	flapWG.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("release: %v", err)
	}

	// Zero lost sessions: everything admitted is either released or
	// still live, and the manager agrees.
	if m.Active() != admitted-released {
		t.Errorf("active = %d, want admitted %d - released %d = %d",
			m.Active(), admitted, released, admitted-released)
	}
	for _, sess := range m.Sessions() {
		if !live[sess.ID] {
			t.Errorf("session %d live but never recorded as kept", sess.ID)
		}
	}
	checkIntegrity(t, m)

	// Every surviving non-degraded session must hold a deliverable
	// embedding on the final (healed) network.
	final := m.Network()
	for _, sess := range m.Sessions() {
		if sess.Degraded {
			continue
		}
		if err := conformance.CheckLive(final, sess.Result.Embedding); err != nil {
			t.Errorf("session %d: validate on final network: %v", sess.ID, err)
		}
	}

	// Drain and confirm the network ends clean.
	for _, sess := range m.Sessions() {
		if err := m.Release(sess.ID); err != nil {
			t.Errorf("final release %d: %v", sess.ID, err)
		}
	}
	if m.Active() != 0 {
		t.Errorf("%d sessions leaked", m.Active())
	}
	if m.LiveInstances() != 0 {
		t.Errorf("%d instances leaked", m.LiveInstances())
	}
	checkIntegrity(t, m)
}

// TestSingleClientMatchesSerialized proves the optimistic admission
// path is bit-identical to the fully serialized one when there is no
// concurrency: a shadow network driven by direct core.Solve calls (the
// pre-snapshot admission procedure) must produce the same embeddings,
// costs and rejections as the manager, and the manager must never
// conflict, retry or fall back.
func TestSingleClientMatchesSerialized(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	shadow := net.Clone()
	m := NewManager(net, core.Options{})
	for i := 0; i < 12; i++ {
		task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := core.Solve(shadow, task, core.Options{})
		sess, gotErr := m.Admit(task)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("task %d: serialized err %v vs manager err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if want.FinalCost != sess.Result.FinalCost {
			t.Errorf("task %d: cost %v != serialized %v", i, sess.Result.FinalCost, want.FinalCost)
		}
		if !reflect.DeepEqual(want.Embedding, sess.Result.Embedding) {
			t.Errorf("task %d: embedding differs from serialized solve", i)
		}
		for _, inst := range want.Embedding.NewInstances {
			if err := shadow.Deploy(inst.VNF, inst.Node); err != nil {
				t.Fatalf("task %d: shadow deploy: %v", i, err)
			}
		}
	}
	stats := m.Stats()
	if stats.CommitConflicts != 0 || stats.AdmitRetries != 0 || stats.SerializedFallbacks != 0 {
		t.Errorf("single client saw contention: %+v", stats)
	}
}
