package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sftree/internal/netgen"
)

// Property: the incremental ledger and the naive full recomputation
// price the same states identically, across randomized topologies,
// chains, and arbitrary (even non-improving, non-OPA) move sequences.
// Reverting a move must restore the ledger's totals bit-for-bit.
func TestQuickIncrementalMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(5))
		st, _, err := runMSA(net, task, Options{}, getScratch(net.NumNodes()))
		if err != nil {
			return errors.Is(err, ErrNoFeasible)
		}
		st.ensureLedger()
		metric := net.Metric()
		k := task.K()
		servers := net.Servers()
		for step := 0; step < 12; step++ {
			// canHost and instanceSetupCost must agree with the naive
			// derivation at every intermediate state.
			f := task.Chain[rng.Intn(k)]
			v := rng.Intn(net.NumNodes())
			if st.canHost(f, v) != st.canHostNaive(f, v) || st.instanceSetupCost(f, v) != st.instanceSetupCostNaive(f, v) {
				return false
			}

			// A random (not necessarily improving or even sensible)
			// group move: the engines must agree regardless.
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

			before, errBefore := st.totalCost()
			jr := st.applyMoveInc(j, grp, e, metric)
			incCost, incErr := st.totalCost()
			naiveCost, naiveErr := st.cost()
			if (incErr == nil) != (naiveErr == nil) {
				return false
			}
			if incErr == nil {
				if math.IsInf(naiveCost, 1) != math.IsInf(incCost, 1) {
					return false
				}
				if !math.IsInf(incCost, 1) && math.Abs(incCost-naiveCost) > 1e-6 {
					return false
				}
			}
			if rng.Intn(2) == 0 {
				st.revert(jr)
				after, errAfter := st.totalCost()
				if (errAfter == nil) != (errBefore == nil) {
					return false
				}
				if errAfter == nil && after != before {
					return false // revert must be exact, not approximate
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the full two-stage solve is observationally identical under
// the incremental engine and the naive clone-and-recost reference, for
// every stage-two configuration.
func TestQuickSolveMatchesReferenceEngine(t *testing.T) {
	prop := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(14), 1+rng.Intn(3), 1+rng.Intn(4))
		opts := Options{}
		switch mode % 4 {
		case 1:
			opts.AggressiveOPA = true
		case 2:
			opts.MaxOPAPasses = 3
		case 3:
			opts.LocalAcceptance = true
		}
		fast, errFast := Solve(net, task, opts)
		slowMoves, slowCost, errSlow := solveNaive(net, task, opts)
		if (errFast == nil) != (errSlow == nil) {
			return false
		}
		if errFast != nil {
			return errors.Is(errFast, ErrNoFeasible) && errors.Is(errSlow, ErrNoFeasible)
		}
		if fast.MovesAccepted != slowMoves {
			return false
		}
		return math.Abs(fast.FinalCost-slowCost) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
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

// TestEngineEventParity: the incremental and reference stage-two
// engines must emit the same move sequence on the same instance.
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
			t.Fatalf("aggressive %v: %d incremental move events, %d reference", opts.AggressiveOPA, len(a), len(b))
		}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Level != b[i].Level || a[i].From != b[i].From || a[i].To != b[i].To {
				t.Errorf("aggressive %v: move %d differs: %+v vs %+v", opts.AggressiveOPA, i, a[i], b[i])
			}
		}
	}
}
