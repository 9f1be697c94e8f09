package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// Property: stage two's in-place trial (applyMove, then undoMove if the
// move is refused) walks through the same states as the reference
// engine's clone-and-apply, across randomized topologies, chains and
// arbitrary (even non-improving, non-OPA) move sequences. The price kept
// across accepted moves is a from-scratch pricing of the reference state
// to the bit, the placed list answers as the naive derivations do, and
// an undone move restores serve, tail and price exactly.
func TestQuickIncrementalMatchesNaive(t *testing.T) {
	kept, undone := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(5))
		st, _, err := runMSA(net, task, Options{}, getScratch(net.NumNodes()))
		if err != nil {
			return errors.Is(err, ErrNoFeasible)
		}
		if st.price, err = st.cost(); err != nil {
			return false
		}
		st.listPlaced()
		ref := st.clone()
		metric, k, servers := net.Metric(), task.K(), net.ServerList()
		for step := 0; step < 12; step++ {
			f, v := task.Chain[rng.Intn(k)], rng.Intn(net.NumNodes())
			if st.canHost(f, v) != st.canHostNaive(f, v) || st.instanceSetupCost(f, v) != st.instanceSetupCostNaive(f, v) {
				return false
			}

			j := 1 + rng.Intn(k)
			var members []int
			for di := range task.Destinations {
				if rng.Intn(2) == 0 {
					members = append(members, di)
				}
			}
			if len(members) == 0 {
				members = []int{rng.Intn(len(task.Destinations))}
			}
			grp := connGroup{node: rng.Intn(net.NumNodes()), members: members}
			e := servers[rng.Intn(len(servers))]

			before := st.clone()
			before.tail = slices.Clone(st.tail)
			st.applyMove(j, grp, e, metric)
			trial := ref.clone()
			trial.applyMove(j, grp, e, metric)
			if !sameAssignment(st, trial) {
				return false
			}
			price, errInc := st.cost()
			refPrice, errRef := trial.cost()
			if (errInc == nil) != (errRef == nil) || errInc == nil && math.Float64bits(price) != math.Float64bits(refPrice) {
				return false
			}
			if errInc != nil || rng.Intn(2) == 0 {
				st.undoMove()
				if !sameState(st, before) {
					return false // undo must be exact, not approximate
				}
				undone++
				continue
			}
			st.price, trial.price = price, refPrice
			st.listPlaced()
			ref = trial
			kept++
			if fresh, err := ref.cost(); err != nil || math.Float64bits(fresh) != math.Float64bits(st.price) {
				return false
			}
		}
		return sameAssignment(st, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	t.Logf("%d moves kept, %d undone", kept, undone)
	if kept < 300 || undone < 300 {
		t.Error("thin coverage: want at least 300 moves kept and 300 undone")
	}
}

// Property: the level-k groups runOPAPass builds (every connection
// node, members gathered in one pass over the tails) and the ones
// markIndependent keeps are the reference's eager groupings without
// and with the dependence filter, on stage-one states and after
// random kept moves, whose rewritten tails may visit a node twice.
func TestQuickGroupsMatchNaive(t *testing.T) {
	checked := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(5))
		st, _, err := runMSA(net, task, Options{}, getScratch(net.NumNodes()))
		if err != nil {
			return errors.Is(err, ErrNoFeasible)
		}
		metric, k, servers := net.Metric(), task.K(), net.ServerList()
		for step := 0; step < 6; step++ {
			groups := st.initialConnectionGroups()
			st.markIndependent()
			var kept []connGroup
			for _, g := range groups {
				if st.sc.indep.has(g.node) {
					kept = append(kept, g)
				}
			}
			if !sameGroups(groups, st.initialConnectionGroupsNaive(true)) || !sameGroups(kept, st.initialConnectionGroupsNaive(false)) {
				return false
			}
			checked++
			if len(groups) == 0 {
				break
			}
			st.applyMove(1+rng.Intn(k), groups[rng.Intn(len(groups))], servers[rng.Intn(len(servers))], metric)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	t.Logf("%d states checked", checked)
}

// sameGroups reports whether a and b list the same nodes with the same
// members, in the same order.
func sameGroups(a, b []connGroup) bool {
	return slices.EqualFunc(a, b, func(x, y connGroup) bool {
		return x.node == y.node && slices.Equal(x.members, y.members)
	})
}

// sameAssignment reports whether a and b serve every destination from
// the same nodes along tails with the same contents.
func sameAssignment(a, b *state) bool {
	if !slices.Equal(a.serve, b.serve) || len(a.tail) != len(b.tail) {
		return false
	}
	for di := range a.tail {
		if !slices.Equal(a.tail[di], b.tail[di]) {
			return false
		}
	}
	return true
}

// Property: the full two-stage solve is identical under runOPAPass and
// the clone-and-recost reference, for every stage-two configuration:
// both price through nfv.Cost, so the final costs agree to the bit, and
// the pruned scan asks canHost exactly as often as the reference says.
func TestQuickSolveMatchesReferenceEngine(t *testing.T) {
	prop := func(seed int64, aggressive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(14), 1+rng.Intn(3), 1+rng.Intn(4))
		opts := Options{AggressiveOPA: aggressive}
		fast, probes, errFast := solveProbed(net, task, opts)
		slowMoves, slowCost, slowProbes, errSlow := solveNaive(net, task, opts)
		if (errFast == nil) != (errSlow == nil) {
			return false
		}
		if errFast != nil {
			return errors.Is(errFast, ErrNoFeasible) && errors.Is(errSlow, ErrNoFeasible)
		}
		return fast.MovesAccepted == slowMoves && math.Float64bits(fast.FinalCost) == math.Float64bits(slowCost) &&
			probes == slowProbes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// solveProbed is Solve that also returns how many servers stage two's
// candidate scan asked canHost.
func solveProbed(net *nfv.Network, task nfv.Task, opts Options) (*Result, int, error) {
	sc := getScratch(net.NumNodes())
	res, err := solve(net, task, opts, sc)
	probes := sc.st.probes
	scratchPool.Put(sc)
	return res, probes, err
}

// moveEvents keeps a solve's stage-two move events, timings cleared.
func moveEvents(log eventLog) []Event {
	var out []Event
	for _, e := range log {
		switch e.Kind {
		case EventMoveProposed, EventMoveAccepted, EventMoveRejected:
			e.Duration = 0
			out = append(out, e)
		}
	}
	return out
}

// TestEngineEventParity: runOPAPass and the reference stage-two engine
// must emit the same move events, costs included, on a seeded corpus of
// paper-shaped instances (40-100 nodes, 2-10 destinations) under both
// rules, and runOPAPass's scan must ask canHost for exactly the servers
// the reference counts: those whose partial sum is below the bar. The
// reference scans every server and filters dependent paths up front, so
// a prune that drops a host able to win shows as a differing event, and
// one that keeps a server whose partial sum only ties the bar (> where
// >= is meant) as a differing probe count. Each rule must propose on
// some instance, or its half of the prune went unchecked; the paper's
// rule proposes on 3 of the 200.
func TestEngineEventParity(t *testing.T) {
	proposals := map[bool]int{}
	probes := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := netgen.Generate(netgen.PaperConfig(40+rng.Intn(61), []float64{0.5, 1, 2}[seed%3]), rng)
		if err != nil {
			t.Fatal(err)
		}
		task, err := netgen.GenerateTask(net, rng, 2+rng.Intn(9), 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {AggressiveOPA: true}} {
			var fast, slow eventLog
			opts.Observer = &fast
			_, got, err := solveProbed(net, task, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Observer = &slow
			_, _, want, err := solveNaive(net, task, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, b := moveEvents(fast), moveEvents(slow)
			if len(a) != len(b) {
				t.Fatalf("seed %d aggressive %v: %d move events, %d from the reference", seed, opts.AggressiveOPA, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("seed %d aggressive %v: move %d differs: %+v vs %+v", seed, opts.AggressiveOPA, i, a[i], b[i])
				}
				if a[i].Kind == EventMoveProposed {
					proposals[opts.AggressiveOPA]++
				}
			}
			if got != want {
				t.Errorf("seed %d aggressive %v: the scan asked canHost %d times, want %d", seed, opts.AggressiveOPA, got, want)
			}
			probes += got
		}
	}
	t.Logf("proposals: %d under the paper's rule, %d aggressive; %d canHost probes", proposals[false], proposals[true], probes)
	for _, aggressive := range []bool{false, true} {
		if proposals[aggressive] == 0 {
			t.Errorf("aggressive %v: no instance proposed a move", aggressive)
		}
	}
}
