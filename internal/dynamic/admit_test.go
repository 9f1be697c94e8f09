package dynamic

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// embBytes canonicalizes an embedding for bit-level comparison.
func embBytes(t *testing.T, emb *nfv.Embedding) string {
	t.Helper()
	blob, err := json.Marshal(emb)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestAdmitCtxMatchesShadowSolve replays one task list through
// consecutive AdmitCtx calls and through a shadow that has no manager
// at all: a bare core.Solve against its own copy of the network,
// followed by deploying what the solve asked for. Snapshot reuse, the
// scaffold cache and the commit protocol must be invisible: every
// per-task decision, session ID, embedding byte and cost bit must
// agree, and so must the final ledger. This is the in-package half of
// the queue equivalence battery.
func TestAdmitCtxMatchesShadowSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	netA, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	shadow := netA.Clone()
	m := NewManager(netA, core.Options{})

	shadowRefs := map[[2]int]int{}
	var shadowCost float64
	admitted := 0
	for i := 0; i < 24; i++ {
		task, err := netgen.GenerateTask(shadow, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		sess, errA := m.AdmitCtx(context.Background(), task)
		res, errB := core.Solve(shadow, task, core.Options{})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("task %d: manager err %v, shadow err %v", i, errA, errB)
		}
		if errB != nil {
			continue
		}
		if int(sess.ID) != admitted {
			t.Fatalf("task %d: session ID %d, want %d", i, sess.ID, admitted)
		}
		admitted++
		if a, b := embBytes(t, sess.Result.Embedding), embBytes(t, res.Embedding); a != b {
			t.Fatalf("task %d: embeddings diverge:\n%s\n%s", i, a, b)
		}
		if a, b := sess.Result.FinalCost, res.FinalCost; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("task %d: cost %v vs %v", i, a, b)
		}
		shadowCost += res.FinalCost
		for _, inst := range res.Embedding.NewInstances {
			if err := shadow.Deploy(inst.VNF, inst.Node); err != nil {
				t.Fatalf("task %d: shadow deploy: %v", i, err)
			}
			shadowRefs[[2]int{inst.VNF, inst.Node}] = 0
		}
		for _, key := range res.Embedding.AppendServed(nil) {
			if _, dyn := shadowRefs[key]; dyn {
				shadowRefs[key]++
			}
		}
	}

	st := m.Stats()
	if st.Admitted != admitted || st.Active != admitted || st.Admitted+st.Rejected != 24 {
		t.Fatalf("stats %+v, shadow admitted %d", st, admitted)
	}
	if math.Float64bits(st.AdmittedCost) != math.Float64bits(shadowCost) {
		t.Fatalf("accounting diverges: %v vs %v", st.AdmittedCost, shadowCost)
	}
	refs := m.Refs()
	if len(refs) != len(shadowRefs) {
		t.Fatalf("ref ledgers diverge: %d vs %d instances", len(refs), len(shadowRefs))
	}
	for key, n := range refs {
		if shadowRefs[key] != n {
			t.Fatalf("refs[%v] = %d vs %d", key, n, shadowRefs[key])
		}
	}
	checkIntegrity(t, m)
}

// TestSettleIsSolveAtCommit: a commit is the solve at its commit
// point. A head (not-ahead) attempt solves, then a concurrent admission
// of the same chain commits and deploys instances the first task could
// reuse for free. The first attempt's embedding is still feasible, but
// it is not what a solve on the network as it now stands returns, so
// Settle must count one conflict, solve again and commit exactly that
// solve's embedding and cost.
func TestSettleIsSolveAtCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(net, core.Options{})
	task, err := netgen.GenerateTask(net, rng, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := netgen.GenerateTask(net, rng, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	other.Chain = task.Chain

	a := m.Solve(context.Background(), task, false)
	first := a.res
	rival, err := m.Admit(other)
	if err != nil {
		t.Fatal(err)
	}
	if len(rival.Result.Embedding.NewInstances) == 0 {
		t.Fatal("fixture: the concurrent admission deployed nothing")
	}
	atCommit := m.CloneNetwork()
	sess, err := a.Settle()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(atCommit, task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.FinalCost == want.FinalCost {
		t.Fatalf("fixture: the first solve already costs %.2f, what a solve at the commit point costs", first.FinalCost)
	}
	if a, b := embBytes(t, sess.Result.Embedding), embBytes(t, want.Embedding); a != b {
		t.Fatalf("committed embedding (cost %.2f; first solve %.2f) is not the solve at the commit point (cost %.2f):\n%s\n%s",
			sess.Result.FinalCost, first.FinalCost, want.FinalCost, a, b)
	}
	if a, b := sess.Result.FinalCost, want.FinalCost; math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("committed cost %v, solve at the commit point %v", a, b)
	}
	if st := m.Stats(); st.CommitConflicts != 1 || st.SerializedFallbacks != 0 {
		t.Fatalf("stats %+v: want one conflict and no fallback", st)
	}
	checkIntegrity(t, m)
}

// TestAdmitCtxCoalescesAcrossCalls pins when separate admissions share
// a snapshot: exactly while no commit moved the deployment state. The
// first admission after a deploy, after a release that undeployed
// something, or after a Rebase solves on a fresh clone; every other
// one rides the clone its predecessor left behind. An attempt solved
// ahead of its turn hears what a serial admission at its turn would.
func TestAdmitCtxCoalescesAcrossCalls(t *testing.T) {
	m := NewManager(lineNet(t, 2), core.Options{})
	x := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	y := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{1}}
	want := 0
	admit := func(step string, task nfv.Task, coalesced bool) *Session {
		t.Helper()
		sess, err := m.Admit(task)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if sess.Coalesced != coalesced {
			t.Fatalf("%s: Coalesced = %v, want %v", step, sess.Coalesced, coalesced)
		}
		if coalesced {
			want++
		}
		if got := m.Stats().CoalescedSolves; got != want {
			t.Fatalf("%s: Stats().CoalescedSolves = %d, want %d", step, got, want)
		}
		return sess
	}

	admit("first ever", x, false)
	admit("after x's deploy", x, false)
	spare := admit("nothing moved", x, true)
	admit("nothing moved again", x, true)
	if err := m.Release(spare.ID); err != nil {
		t.Fatal(err)
	}
	admit("after a release that undeployed nothing", x, true)
	lone := admit("deploys y's instance", y, true)
	admit("after y's deploy", x, false)
	admit("nothing moved", x, true)
	if err := m.Release(lone.ID); err != nil {
		t.Fatal(err)
	}
	admit("after a release that undeployed y's instance", x, false)
	admit("nothing moved", x, true)
	m.Rebase(m.CloneNetwork())
	admit("after a rebase", x, false)
	admit("nothing moved", x, true)

	// An attempt solved ahead of its turn asks in commit order. Here the
	// network leaves its snapshot's state and comes back before that
	// turn, so a serial run would have cloned afresh: not coalesced.
	ahead := m.Solve(context.Background(), x, true)
	lone = admit("deploys y's instance", y, true)
	admit("after y's deploy", x, false)
	if err := m.Release(lone.ID); err != nil {
		t.Fatal(err)
	}
	sess, err := ahead.Settle()
	if err != nil || ahead.Stale() || sess.Coalesced {
		t.Fatalf("ahead attempt: err %v, stale %v, Coalesced %v; want a commit as solved, not coalesced", err, ahead.Stale(), sess != nil && sess.Coalesced)
	}
	admit("nothing moved", x, true)
	checkIntegrity(t, m)
}

// TestAdmitCtxDeadline pins the per-call deadline: a generous one
// changes nothing, an expired one still admits — the solver's anytime
// semantics — and says so through EarlyStop.
func TestAdmitCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, err := netgen.Generate(netgen.PaperConfig(20, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(net, core.Options{})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	sess, err := m.AdmitCtx(ctx, task)
	cancel()
	if err != nil {
		t.Fatalf("deadline-bounded admit: %v", err)
	}
	if sess.Result.EarlyStop {
		t.Fatal("a generous deadline must not trigger an early stop")
	}

	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	sess, err = m.AdmitCtx(ctx, task)
	cancel()
	if err != nil {
		t.Fatalf("admit past its deadline: %v", err)
	}
	if !sess.Result.EarlyStop {
		t.Fatal("an expired deadline must be reported as an early stop")
	}
	checkIntegrity(t, m)
}

// chainNet is a line 0-1-2-3-4-5 whose four inner nodes are servers.
// VNF f is cheap to set up on node f+1 only, so a session with chain
// {f} installs exactly there and a session with chain {0,1,2,3}
// reuses all four installs in line order.
func chainNet(t *testing.T) *nfv.Network {
	t.Helper()
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	catalog := make([]nfv.VNF, 4)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 1}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 1; v <= 4; v++ {
		if err := net.SetServer(v, 4); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			cost := 100.0
			if v == f+1 {
				cost = 1
			}
			if err := net.SetSetupCost(f, v, cost); err != nil {
				t.Fatal(err)
			}
		}
	}
	return net
}

// saboteur is a core.Observer that, once armed, lets fn run at the
// start of each solve — outside the manager lock on an optimistic
// attempt.
type saboteur struct {
	armed  atomic.Bool
	solves atomic.Int32
	fn     func(solve int)
	// unscaffolded counts armed solves whose overlay did not come
	// through the manager's scaffold cache.
	unscaffolded atomic.Int32
}

func (s *saboteur) OnEvent(e core.Event) {
	if !s.armed.Load() {
		return
	}
	switch e.Kind {
	case core.EventStage1Start:
		s.fn(int(s.solves.Add(1)))
	case core.EventOverlayBuilt:
		if !e.Scaffold {
			s.unscaffolded.Add(1)
		}
	}
}

// TestAdmitCtxFallbackHoldsLock drives the bounded-retry fallback
// deterministically. Four sessions each own one instance of the chain
// the contested admission wants; during each of its first
// maxAdmitRetries+1 solves the observer releases the owner of an
// instance the candidate embedding reuses, so the live network leaves
// the snapshot's state and the commit conflicts. The attempt after that holds the lock from
// snapshot to commit: the observer has gone quiet, nothing can move,
// and the result is what a fresh solve on the state after the last
// release produces.
func TestAdmitCtxFallbackHoldsLock(t *testing.T) {
	sab := &saboteur{}
	m := NewManager(chainNet(t), core.Options{Observer: sab})
	owners := make([]*Session, 4)
	for f := range owners {
		sess, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{5}, Chain: nfv.SFC{f}})
		if err != nil {
			t.Fatal(err)
		}
		if inst := sess.Result.Embedding.NewInstances; len(inst) != 1 || inst[0].Node != f+1 {
			t.Fatalf("fixture: owner %d installed %v", f, inst)
		}
		owners[f] = sess
	}

	var afterLastRelease *nfv.Network
	sab.fn = func(solve int) {
		if solve > maxAdmitRetries+1 {
			return // quiet: this solve runs under the manager lock
		}
		if err := m.Release(owners[solve-1].ID); err != nil {
			t.Errorf("solve %d: %v", solve, err)
		}
		afterLastRelease = m.CloneNetwork()
	}
	sab.armed.Store(true)
	task := nfv.Task{Source: 0, Destinations: []int{5}, Chain: nfv.SFC{0, 1, 2, 3}}
	sess, err := m.Admit(task)
	sab.armed.Store(false)
	if err != nil {
		t.Fatalf("contested admission: %v", err)
	}

	st := m.Stats()
	if st.SerializedFallbacks != 1 || st.CommitConflicts != maxAdmitRetries+1 || st.AdmitRetries != maxAdmitRetries+1 {
		t.Fatalf("stats %+v: want 1 fallback after %d conflicts", st, maxAdmitRetries+1)
	}
	if n := sab.solves.Load(); n != maxAdmitRetries+2 {
		t.Fatalf("%d solves, want %d", n, maxAdmitRetries+2)
	}
	// The last attempt is the ordinary one: like the others it solves
	// on a snapshot clone, which is what lets it use the scaffold cache.
	if n := sab.unscaffolded.Load(); n != 0 {
		t.Fatalf("%d solves bypassed the scaffold cache", n)
	}
	if st.Active != 1 || st.Rejected != 0 {
		t.Fatalf("stats %+v: want the contested session alone", st)
	}
	if err := conformance.CheckLive(m.Network(), sess.Result.Embedding); err != nil {
		t.Fatalf("fallback embedding: %v", err)
	}
	want, err := core.Solve(afterLastRelease, task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := embBytes(t, sess.Result.Embedding), embBytes(t, want.Embedding); a != b {
		t.Fatalf("fallback embedding differs from a fresh solve:\n%s\n%s", a, b)
	}
	if a, b := sess.Result.FinalCost, want.FinalCost; math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("fallback cost %v, fresh solve %v", a, b)
	}
	checkIntegrity(t, m)
}

// TestAdmitCtxSharedSnapshotRace has eight goroutines admit tasks that
// can only reuse what is installed (the servers are full), so no commit
// moves the deployment state and all of them solve on one shared clone
// — at the same time: the observer holds every first solve until all
// eight hold their snapshot. Each worker has its own (source, chain),
// so no scaffold is shared and every solver walks the clone for
// itself. Under -race this is what takeSnapshot's warm-up is for: the
// fixture's server list has never been computed when the clone is
// taken.
func TestAdmitCtxSharedSnapshotRace(t *testing.T) {
	const workers, rounds = 8, 6
	var arrived atomic.Int32
	allIn := make(chan struct{})
	sab := &saboteur{fn: func(int) {
		if arrived.Add(1) == workers {
			close(allIn)
		}
		<-allIn
	}}
	m := NewManager(lineNet(t, 1), core.Options{Observer: sab})
	if _, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0, 1}}); err != nil {
		t.Fatal(err)
	}
	sab.armed.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		task := nfv.Task{Source: w % 4, Destinations: []int{(w + 1) % 4}, Chain: nfv.SFC{0, 1}}
		if w >= 4 {
			task.Chain = nfv.SFC{1, 0}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sess, err := m.Admit(task)
				if err != nil {
					t.Errorf("admit %v: %v", task, err)
					return
				}
				if len(sess.Result.Embedding.NewInstances) != 0 {
					t.Errorf("fixture: session %d installed %v", sess.ID, sess.Result.Embedding.NewInstances)
				}
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st.Admitted != 1+workers*rounds || st.CoalescedSolves < workers-1 {
		t.Fatalf("stats %+v: want %d admissions, at least %d coalesced", st, 1+workers*rounds, workers-1)
	}
	if err := m.VerifyRefs(); err != nil {
		t.Fatal(err)
	}
	checkIntegrity(t, m)
}
