package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"sftree/internal/mod"
	"sftree/internal/nfv"
)

// Tests of the solve that does each thing once: one embedding and one
// pricing unless stage two proposes a move, exact undo of a rejected
// one, flat storage for what a solve returns.

// TestRejectedMovesLeaveEmbeddingUntouched is the argument behind
// pricing once. Under AggressiveOPA the generated instance proposes
// moves and the global gate refuses every one; each was applied to the
// state and undone. The embedding built before stage two must be the
// one built after, and the cost Solve reports — priced before stage two
// ran — the cost of the final state.
func TestRejectedMovesLeaveEmbeddingUntouched(t *testing.T) {
	net, task := generated60(t)
	var log eventLog
	opts := Options{AggressiveOPA: true, Observer: &log}
	st, _, err := runMSA(net, task, opts, getScratch(net.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	before, err := st.embedding()
	if err != nil {
		t.Fatal(err)
	}
	st.price = net.Cost(before).Total
	moves, _, err := runOPA(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	proposed := 0
	for _, e := range log {
		if e.Kind == EventMoveProposed {
			proposed++
		}
	}
	if proposed == 0 || moves != 0 {
		t.Fatalf("%d moves proposed, %d accepted; the test wants some proposed and none accepted", proposed, moves)
	}
	after, err := st.embedding()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected moves changed the state:\n%v\n%v", before, after)
	}
	want, err := st.cost()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(net, task, Options{AggressiveOPA: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.FinalCost) != math.Float64bits(want) || res.FinalCost != res.Stage1Cost {
		t.Errorf("FinalCost %v (stage one %v), a fresh pricing of the final state gives %v", res.FinalCost, res.Stage1Cost, want)
	}
	if !reflect.DeepEqual(res.Embedding, after) {
		t.Errorf("Solve returned\n%v\nthe final state materialises as\n%v", res.Embedding, after)
	}
}

// hostViewAgrees checks, for every chain VNF and every node, that the
// placed list answers canHost and instanceSetupCost as the naive
// derivations do, and that the demand it reserves is the naive sum to
// the bit.
func hostViewAgrees(t *testing.T, st *state, what string) {
	t.Helper()
	used := st.usedCapacity()
	for _, f := range st.task.Chain {
		for v := 0; v < st.net.NumNodes(); v++ {
			if st.canHost(f, v) != st.canHostNaive(f, v) || st.instanceSetupCost(f, v) != st.instanceSetupCostNaive(f, v) {
				t.Fatalf("%s: vnf %d node %d: canHost %v/%v setup %v/%v", what, f, v,
					st.canHost(f, v), st.canHostNaive(f, v), st.instanceSetupCost(f, v), st.instanceSetupCostNaive(f, v))
			}
			if _, u := st.hosted(f, v); math.Float64bits(u) != math.Float64bits(used[v]) {
				t.Fatalf("%s: vnf %d node %d: placed list reserves %v, naive sum %v", what, f, v, u, used[v])
			}
		}
	}
}

// sameState reports whether a and b hold the same serve entries, the
// same tail slices (header for header, not only equal contents) and the
// same price bits.
func sameState(a, b *state) bool {
	if !slices.Equal(a.serve, b.serve) || len(a.tail) != len(b.tail) || math.Float64bits(a.price) != math.Float64bits(b.price) {
		return false
	}
	for di := range a.tail {
		x, y := a.tail[di], b.tail[di]
		if len(x) != len(y) || cap(x) != cap(y) || len(x) > 0 && &x[0] != &y[0] {
			return false
		}
	}
	return true
}

// TestHostViewMatchesLedger: the placed list is stage two's only
// instance view, and the naive derivations are its ledger. The test
// drives the state through random group moves with applyMove, keeping
// some (priced and listed, as runOPAPass does) and undoing the rest.
// After every step the placed list must answer as the naive derivations
// do, and an undone move must leave serve, tail and price exactly as
// they were. Hand-made assignments with a different chain per
// destination on servers with fractional, nearly exhausted capacity get
// the same host-view check.
func TestHostViewMatchesLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	stageOne, kept, undone, multi, tight := 0, 0, 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		var net *nfv.Network
		var task nfv.Task
		if trial%2 == 0 {
			net, task = fractionalInstance(rng, 8+rng.Intn(20), 2+rng.Intn(4), 1+rng.Intn(5))
		} else {
			net, task = randomInstance(rng, 8+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(5))
		}
		st, _, err := runMSA(net, task, Options{}, getScratch(net.NumNodes()))
		if err != nil {
			continue // no feasible stage-one solution on this draw
		}
		if st.price, err = st.cost(); err != nil {
			t.Fatal(err)
		}
		st.listPlaced()
		hostViewAgrees(t, st, "stage one")
		stageOne++
		chain := append([]int(nil), st.row(0)[1:]...)

		metric, k, servers := net.Metric(), task.K(), net.ServerList()
		for step := 0; step < 6; step++ {
			var members []int
			for di := range task.Destinations {
				if rng.Intn(2) == 0 {
					members = append(members, di)
				}
			}
			if len(members) == 0 {
				continue
			}
			grp := connGroup{node: task.Destinations[members[0]], members: members}
			before := st.clone()
			before.tail = slices.Clone(st.tail) // the headers, not copies of the tails
			st.applyMove(1+rng.Intn(k), grp, servers[rng.Intn(len(servers))], metric)
			price, err := st.cost()
			if err != nil || rng.Intn(3) == 0 {
				st.undoMove()
				if !sameState(st, before) {
					t.Fatalf("trial %d step %d: undoMove did not restore the state", trial, step)
				}
				undone++
			} else {
				st.price = price
				st.listPlaced()
				kept++
			}
			hostViewAgrees(t, st, "after moves")
		}

		// A hand-made assignment: from the stage-one chain everywhere,
		// every destination re-picks each level among the servers that
		// can still host it, so chains differ and servers fill up.
		hand := newState(net, task, st.sc)
		for di := range task.Destinations {
			copy(hand.row(di)[1:], chain)
			hand.tail[di] = []int{task.Destinations[di]}
		}
		for di := range task.Destinations {
			for j := 1; j <= k; j++ {
				hand.listPlaced()
				var fits []int
				for _, v := range servers {
					if hand.canHost(task.Chain[j-1], v) {
						fits = append(fits, v)
					}
				}
				hand.row(di)[j] = fits[rng.Intn(len(fits))] // never empty: the current host fits
			}
			hand.listPlaced()
			hostViewAgrees(t, hand, "hand-made")
			multi++
		}
		for _, v := range servers {
			if _, used := hand.hosted(task.Chain[0], v); used > 0 && net.FreeCapacity(v)-used < 0.2 {
				tight++
			}
		}
	}
	t.Logf("%d stage-one states, %d moves kept, %d undone, %d hand-made, %d nearly full servers", stageOne, kept, undone, multi, tight)
	if stageOne < 50 || kept < 300 || undone < 150 || multi < 100 || tight < 50 {
		t.Error("thin coverage: want at least 50 stage-one states, 300 moves kept, 150 undone, 100 hand-made, 50 nearly full servers")
	}
}

// TestSolveAllocBudget holds the flat layout in place: a solve under
// default options leaves at most 30 allocations behind, on the largest
// shape of bench/'s solve_paper pool and on the burst_shared shape,
// each on its workload's network. Those are the returned embedding and
// result plus the sweep's own handful: the state, tree paths, overlay
// buffers and pricing bitmap come from pools. (The parent of this test
// left 500-900; one embedding, one pricing and no ledger but
// per-segment paths still 240-400; a fresh overlay, state and bitmap
// per solve 40.)
func TestSolveAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	paperNet, paper := paperPool(t)
	burstNet, burst := burstPool(t)
	for _, c := range []struct {
		net      *nfv.Network
		task     nfv.Task
		dests, k int
	}{{paperNet, paper[2], 20, 7}, {burstNet, burst[0], 10, 5}} {
		if len(c.task.Destinations) != c.dests || c.task.K() != c.k {
			t.Fatalf("the pool's task is %dx%d, want %dx%d", len(c.task.Destinations), c.task.K(), c.dests, c.k)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Solve(c.net, c.task, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d nodes, %dx%d: %.0f allocations per solve", c.net.NumNodes(), c.dests, c.k, allocs)
		if allocs > 30 {
			t.Errorf("%d nodes, %dx%d: %.0f allocations per solve, budget 30", c.net.NumNodes(), c.dests, c.k, allocs)
		}
	}
}

// TestBrokenStageOneFailsTheSolve: stage one's embedding is validated
// in the pass that prices it, and a solve whose stage two accepts no
// move (every burst task here) does not run Validate again. An observer
// breaks the winning state once the sweep ends — the second
// destination's tail takes a hop over a non-edge, or stops one node
// short of its destination — and the solve, and stage one alone, must
// fail as a bug. (Chain segments are metric paths, so a state cannot
// break one; internal/nfv's TestQuickWalkerMatchesNaive breaks the
// second destination's copy of a shared chain segment directly.)
func TestBrokenStageOneFailsTheSolve(t *testing.T) {
	net, tasks := burstPool(t)
	g := net.Graph()
	breaks := map[string]func(tail []int) []int{
		"non-edge hop": func(tail []int) []int {
			for x := 0; x < net.NumNodes(); x++ {
				if _, ok := g.HasEdge(tail[0], x); !ok && x != tail[0] {
					return append([]int{tail[0], x}, tail[1:]...)
				}
			}
			t.Fatal("no non-neighbour")
			return nil
		},
		"cut short": func(tail []int) []int { return tail[:len(tail)-1] },
	}
	for name, broken := range breaks {
		for _, task := range tasks[:8] {
			for stage, run := range map[string]func(*scratch, Options) error{
				"solve": func(sc *scratch, opts Options) error {
					_, err := solve(net, task, opts, sc)
					return err
				},
				"stage one": func(sc *scratch, opts Options) error {
					_, _, err := stageOne(net, task, opts, sc)
					return err
				},
			} {
				sc := getScratch(net.NumNodes()) // not put back: it is broken
				opts := Options{Observer: observerFunc(func(e Event) {
					if e.Kind == EventSweepEnd && len(sc.st.tail[1]) >= 2 {
						sc.st.tail[1] = broken(slices.Clone(sc.st.tail[1]))
					}
				})}
				err := run(sc, opts)
				if !errors.Is(err, nfv.ErrInfeasible) || !strings.Contains(fmt.Sprint(err), "produced invalid embedding (bug)") {
					t.Fatalf("%s, %s: %v, want the invalid-embedding bug", name, stage, err)
				}
			}
		}
	}
}

// TestEmbeddingSegmentsDoNotAlias: the returned embedding keeps its
// paths in one array and its segments in another. Appending to a path
// or a walk and writing through a path must touch nothing else, a
// Clone must be the same value, and the JSON form must round-trip.
func TestEmbeddingSegmentsDoNotAlias(t *testing.T) {
	net, tasks := burstPool(t)
	for _, opts := range []Options{{}, {AggressiveOPA: true}} {
		for _, task := range tasks[:8] {
			res, err := Solve(net, task, opts)
			if err != nil {
				t.Fatal(err)
			}
			emb, want := res.Embedding, res.Embedding.Clone()
			if !reflect.DeepEqual(emb, want) {
				t.Fatalf("Clone differs:\n%v\n%v", emb, want)
			}
			doc, err := json.Marshal(emb)
			if err != nil {
				t.Fatal(err)
			}
			var back nfv.Embedding
			if err := json.Unmarshal(doc, &back); err != nil {
				t.Fatal(err)
			}
			if again, _ := json.Marshal(&back); string(again) != string(doc) || !reflect.DeepEqual(&back, want) {
				t.Fatalf("JSON round trip changed the embedding:\n%s\n%s", doc, again)
			}
			for di := range emb.Walks {
				for j := range emb.Walks[di] {
					seg := &emb.Walks[di][j]
					kept := append([]int(nil), seg.Path...)
					seg.Path = append(seg.Path, -7)
					for i := range seg.Path {
						seg.Path[i] = -9
					}
					seg.Path = kept
					if !reflect.DeepEqual(emb, want) {
						t.Fatalf("destination %d segment %d: writing through its path changed another", di, j)
					}
				}
				kept := emb.Walks[di]
				emb.Walks[di] = append(emb.Walks[di], nfv.Segment{Level: -1, Path: []int{-1}})
				emb.Walks[di] = kept
				if !reflect.DeepEqual(emb, want) {
					t.Fatalf("destination %d: appending to its walk changed another", di)
				}
			}
		}
	}
}

// TestCandidateOrderMatchesSortSlice: the candidate table's order is
// the permutation sort.Slice gave under a strict < on the chain cost —
// ties included, since the order of equal-cost candidates decides
// which of two equal totals the sweep keeps.
func TestCandidateOrderMatchesSortSlice(t *testing.T) {
	check := func(name string, servers []int, costTo func(v int) float64, got []mod.Candidate) {
		t.Helper()
		want := append([]int(nil), servers...)
		sort.Slice(want, func(a, b int) bool { return costTo(want[a]) < costTo(want[b]) })
		for i, v := range want {
			if int(got[i].Node) != v {
				t.Fatalf("%s: row %d is candidate %d, sort.Slice puts %d there", name, i, got[i].Node, v)
			}
		}
	}
	ties := 0
	for _, pool := range []func(testing.TB) (*nfv.Network, []nfv.Task){paperPool, burstPool} {
		net, tasks := pool(t)
		servers := net.ServerList()
		for i, task := range tasks {
			overlay, err := mod.Build(net, task.Source, task.Chain)
			if err != nil {
				t.Fatal(err)
			}
			sol := overlay.SolveSFC()
			got := overlay.Candidates(newSweeper(net, task, overlay, SteinerKMB, getScratch(net.NumNodes())).chainTable)
			if len(got) != len(servers) {
				t.Fatalf("%d rows for %d servers", len(got), len(servers))
			}
			check(fmt.Sprintf("%d nodes, task %d", net.NumNodes(), i), servers, sol.CostTo, got)
			for j := 1; j < len(got); j++ {
				if sol.CostTo(int(got[j].Node)) == sol.CostTo(int(got[j-1].Node)) {
					ties++
				}
			}
		}
	}
	t.Logf("%d adjacent ties across the pools", ties)

	// All ties, and few distinct keys among many candidates: the orders
	// an unstable sort is free to choose between.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 11, 12, 13, 50, 100, 257, 1000} {
		for _, keys := range []int{1, 2, 5} {
			servers := rng.Perm(n)
			cost := make([]float64, n)
			for v := range cost {
				cost[v] = float64(rng.Intn(keys))
			}
			got := make([]mod.Candidate, n)
			for i, v := range servers {
				got[i] = mod.Candidate{Cost: cost[v], Node: int32(v)}
			}
			sortCandidates(got)
			check("synthetic", servers, func(v int) float64 { return cost[v] }, got)
		}
	}
}

// cancelAtPassEnd is an observer that cancels a context as the n-th
// stage-two pass closes.
type cancelAtPassEnd struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtPassEnd) OnEvent(e Event) {
	if e.Kind == EventOPAPassEnd {
		if c.n--; c.n == 0 {
			c.cancel()
		}
	}
}

// TestEarlyStopOnlyWhenCutShort: EarlyStop means a deadline poll ended
// the algorithm before it ran to completion. A context that expires
// once the last level of the last pass is done was never polled again
// and cut nothing short; one that expires at any poll did.
func TestEarlyStopOnlyWhenCutShort(t *testing.T) {
	net, task := generated60(t)
	for _, opts := range []Options{{}, {AggressiveOPA: true}} {
		var log eventLog
		observed := opts
		observed.Observer = &log
		want, err := Solve(net, task, observed)
		if err != nil {
			t.Fatal(err)
		}
		passes := 0
		for _, e := range log {
			if e.Kind == EventOPAPassEnd {
				passes++
			}
		}

		// Expiry as the last pass closes: nothing is left to cut.
		ctx, cancel := context.WithCancel(context.Background())
		late := opts
		late.Ctx, late.Observer = ctx, &cancelAtPassEnd{passes, cancel}
		res, err := Solve(net, task, late)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.EarlyStop || !reflect.DeepEqual(res, want) {
			t.Errorf("%+v: context expired after the last level: EarlyStop %v, result equal %v", opts, res.EarlyStop, reflect.DeepEqual(res, want))
		}

		// By poll count: the unbounded solve polls before every candidate
		// but the first, before every pass and before every level — and
		// not once more when the last level is done.
		full := newPollCtx(math.MaxInt)
		counted := opts
		counted.Ctx = full
		if res, err = Solve(net, task, counted); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%+v: a deadline that never expires changed the result", opts)
		}
		polls := full.open
		if !opts.AggressiveOPA {
			// One pass that proposes nothing stops after level k (Theorem 4).
			if all := len(net.ServerList()); polls != (all-1)+1+1 {
				t.Errorf("unbounded default solve polled the deadline %d times, want %d", polls, all+1)
			}
		}
		for budget := 0; budget <= polls; budget++ {
			ctx := newPollCtx(budget)
			bounded := opts
			bounded.Ctx = ctx
			res, err := Solve(net, task, bounded)
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if err := net.Validate(res.Embedding); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if cut := budget < polls; res.EarlyStop != cut || ctx.expired != cut {
				t.Errorf("%+v budget %d of %d polls: EarlyStop %v, deadline seen expired %v", opts, budget, polls, res.EarlyStop, ctx.expired)
			}
			if budget == polls && !reflect.DeepEqual(res, want) {
				t.Errorf("%+v: a deadline that outlives the last poll changed the result", opts)
			}
		}
	}
}
