package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sftree/internal/netgen"
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
// both price through nfv.Cost, so the final costs agree to the bit.
func TestQuickSolveMatchesReferenceEngine(t *testing.T) {
	prop := func(seed int64, aggressive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(14), 1+rng.Intn(3), 1+rng.Intn(4))
		opts := Options{AggressiveOPA: aggressive}
		fast, errFast := Solve(net, task, opts)
		slowMoves, slowCost, errSlow := solveNaive(net, task, opts)
		if (errFast == nil) != (errSlow == nil) {
			return false
		}
		if errFast != nil {
			return errors.Is(errFast, ErrNoFeasible) && errors.Is(errSlow, ErrNoFeasible)
		}
		return fast.MovesAccepted == slowMoves && math.Float64bits(fast.FinalCost) == math.Float64bits(slowCost)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
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
// must emit the same move events on the same instance, costs included.
func TestEngineEventParity(t *testing.T) {
	net, err := netgen.Generate(netgen.PaperConfig(60, 2), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rand.New(rand.NewSource(12)), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's rule proposes nothing on this instance; the aggressive
	// one does, which is what keeps the comparison from being vacuous.
	for _, opts := range []Options{{}, {AggressiveOPA: true}} {
		var fast, slow eventLog
		opts.Observer = &fast
		if _, err := Solve(net, task, opts); err != nil {
			t.Fatal(err)
		}
		opts.Observer = &slow
		if _, _, err := solveNaive(net, task, opts); err != nil {
			t.Fatal(err)
		}
		a, b := moveEvents(fast), moveEvents(slow)
		if len(a) != len(b) || opts.AggressiveOPA && len(a) == 0 {
			t.Fatalf("aggressive %v: %d move events, %d from the reference", opts.AggressiveOPA, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("aggressive %v: move %d differs: %+v vs %+v", opts.AggressiveOPA, i, a[i], b[i])
			}
		}
	}
}
