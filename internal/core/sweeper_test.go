package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// fractionalInstance is randomInstance with demands and capacities
// that are not exactly representable, so that restoring a free
// capacity by adding a demand back would drift by an ulp, and tight
// enough that repairs relocate VNFs and some candidates fit nowhere.
func fractionalInstance(rng *rand.Rand, n, k, nd int) (*nfv.Network, nfv.Task) {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	catalog := make([]nfv.VNF, k)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 0.15 * float64(1+rng.Intn(3))}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if rng.Intn(4) == 0 {
			continue // a switch
		}
		if err := net.SetServer(v, 0.1*float64(1+rng.Intn(9))); err != nil {
			panic(err)
		}
		for f := range catalog {
			if err := net.SetSetupCost(f, v, rng.Float64()*8); err != nil {
				panic(err)
			}
			if rng.Intn(6) == 0 && net.FreeCapacity(v) >= catalog[f].Demand {
				if err := net.Deploy(f, v); err != nil {
					panic(err)
				}
			}
		}
	}
	perm := rng.Perm(n)
	task := nfv.Task{Source: perm[0], Destinations: perm[1 : 1+nd], Chain: make(nfv.SFC, k)}
	for j := range task.Chain {
		task.Chain[j] = j
	}
	return net, task
}

// diffTable holds the candidate table a solve of task builds to the
// per-candidate formulation it replaced: the servers in the order
// sort.Slice gives under a strict < on the optimal chain's cost, each
// decoded (HostsTo), repaired on a fresh free vector (RepairChainHosts)
// and priced (ChainCost). Then, visiting the rows in a random order,
// each twice, it holds what the sweep derives per row — the chain of an
// improving candidate, the KMB sweep's price and tree — to the one-shot
// calls, whatever ran before, and requires the shared free vector back
// exactly as the network reports it. Last, it holds runMSA to
// exhaustiveMSA on the same rows: same winner, price, count of
// candidates tried and embedding, however many rows the tree lower
// bound kept it from pricing.
func diffTable(t *testing.T, rng *rand.Rand, net *nfv.Network, task nfv.Task) (c tableCounts) {
	t.Helper()
	overlay, err := mod.Build(net, task.Source, task.Chain)
	if err != nil {
		return c // no server reachable
	}
	sol, metric, servers := overlay.SolveSFC(), net.Metric(), net.ServerList()
	sw := newSweeper(net, task, overlay, SteinerKMB, getScratch(net.NumNodes()))
	freeIntact := func(after string) {
		t.Helper()
		for _, v := range servers {
			if sw.sc.free[v] != net.FreeCapacity(v) {
				t.Fatalf("after %s free[%d] = %v, network says %v", after, v, sw.sc.free[v], net.FreeCapacity(v))
			}
		}
	}
	rows := overlay.Candidates(sw.chainTable)
	freeIntact("the table build")
	c.scans, c.hits, c.fallbacks = sw.sc.relocs.scans, sw.sc.relocs.hits, sw.sc.relocs.fallbacks
	sw.kmb = steiner.NewSweep(net.Graph(), metric, task.Destinations)
	defer sw.kmb.Close()

	order := append([]int(nil), servers...)
	sort.Slice(order, func(a, b int) bool { return sol.CostTo(order[a]) < sol.CostTo(order[b]) })
	if len(rows) != len(order) {
		t.Fatalf("%d rows for %d servers", len(rows), len(order))
	}
	oneShot := make([][]int, len(rows)) // the repaired chain per row, nil without one
	for i, w := range order {
		row := rows[i]
		if int(row.Node) != w {
			t.Fatalf("row %d is candidate %d, sort.Slice puts %d there", i, row.Node, w)
		}
		chain := sol.HostsTo(w)
		if chain == nil {
			if row.Last != mod.NoChain {
				t.Fatalf("unreachable candidate %d: row %+v", w, row)
			}
			continue
		}
		hosts, ok := RepairChainHosts(net, task, chain)
		if !ok {
			c.noRoom++
			if row.Last != mod.NoRoom {
				t.Fatalf("candidate %d: one-shot repair fails, row %+v", w, row)
			}
			continue
		}
		last := hosts[len(hosts)-1]
		if last != w {
			c.movedLast++
		}
		if int(row.Last) != last || row.Cost != overlay.ChainCost(hosts) {
			t.Fatalf("candidate %d: row %+v, one-shot chain %v costs %v", w, row, hosts, overlay.ChainCost(hosts))
		}
		oneShot[i] = hosts
	}

	for _, i := range append(rng.Perm(len(rows)), rng.Perm(len(rows))...) {
		row := rows[i]
		hosts, ok := sw.chain(int(row.Node))
		freeIntact("a chain")
		if ok != (row.Last >= 0) || (hosts == nil) != (row.Last == mod.NoChain) || ok && !slices.Equal(hosts, oneShot[i]) {
			t.Fatalf("candidate %d: chain %v (%v), row %+v, one-shot %v", row.Node, hosts, ok, row, oneShot[i])
		}
		if !ok {
			continue
		}
		last := int(row.Last)
		tree, err := steiner.KMB(net.Graph(), metric, append([]int{last}, task.Destinations...))
		cost, costErr := sw.treeCost(last)
		if (err == nil) != (costErr == nil) || err == nil && cost != tree.Cost {
			t.Fatalf("candidate %d: sweep prices %v (%v), KMB %v (%v)", row.Node, cost, costErr, tree.Cost, err)
		}
		if err != nil {
			continue
		}
		if again, err := sw.tree(last); err != nil || !slices.Equal(again.Edges, tree.Edges) || again.Cost != tree.Cost {
			t.Fatalf("candidate %d: tree %+v (%v), one-shot %+v", row.Node, again, err, tree)
		}
	}

	want, wantEmb, priced := exhaustiveMSA(t, net, task, rows, sw)
	skips, repeats := -1, -1
	sc := getScratch(net.NumNodes())
	defer scratchPool.Put(sc)
	st, got, err := runMSA(net, task, Options{Observer: observerFunc(func(e Event) {
		if e.Kind == EventSweepEnd {
			skips, repeats = e.BoundSkips, e.RepeatRoots
		}
	})}, sc)
	if (err == nil) != (want != nil) {
		t.Fatalf("source %d: runMSA %+v (%v), exhaustive sweep %+v", task.Source, got, err, want)
	}
	if err != nil {
		return c
	}
	emb, err := st.embedding()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want || !reflect.DeepEqual(emb, wantEmb) {
		t.Fatalf("source %d: runMSA %+v embeds\n%v\nexhaustive sweep %+v embeds\n%v", task.Source, got, emb, want, wantEmb)
	}
	c.priced, c.skipped, c.repeats = priced, skips, repeats
	return c
}

// tableCounts is what diffTable saw: repairs that moved the last VNF
// off its candidate and repairs that found no room; the table build's
// relocation scans, memo hits and memoised hosts that had no room left
// (relocMemo); rows the exhaustive sweep priced, rows runMSA's bound
// skipped and rows it answered from the tree-price memo.
type tableCounts struct {
	movedLast, noRoom        int
	scans, hits, fallbacks   int
	priced, skipped, repeats int
}

func (c *tableCounts) add(d tableCounts) {
	c.movedLast, c.noRoom = c.movedLast+d.movedLast, c.noRoom+d.noRoom
	c.scans, c.hits, c.fallbacks = c.scans+d.scans, c.hits+d.hits, c.fallbacks+d.fallbacks
	c.priced, c.skipped, c.repeats = c.priced+d.priced, c.skipped+d.skipped, c.repeats+d.repeats
}

// exhaustiveMSA is runMSA's sweep as it ran before the tree lower
// bound: every row with a repaired chain priced by a one-shot KMB
// call, the strict < on the total picking the winner. It returns the
// winner's stats (nil when no row is feasible), its stage-one
// embedding and how many rows it priced.
func exhaustiveMSA(t *testing.T, net *nfv.Network, task nfv.Task, rows []mod.Candidate, sw *sweeper) (*StageStats, *nfv.Embedding, int) {
	t.Helper()
	var (
		best     *state
		bestCost = graph.Inf
		stats    StageStats
		priced   int
	)
	for _, c := range rows {
		if c.Last == mod.NoChain {
			continue
		}
		stats.CandidatesTried++
		if c.Last == mod.NoRoom {
			continue
		}
		priced++
		last := int(c.Last)
		tree, err := steiner.KMB(net.Graph(), net.Metric(), append([]int{last}, task.Destinations...))
		if err != nil || c.Cost+tree.Cost >= bestCost {
			continue
		}
		hosts, _ := sw.chain(int(c.Node))
		st, err := stateFromSolution(net, task, hosts, tree, sw.sc)
		if err != nil {
			continue
		}
		best, bestCost, stats.LastHost = st, c.Cost+tree.Cost, last
	}
	if best == nil {
		return nil, nil, priced
	}
	stats.Stage1Cost = bestCost
	emb, err := best.embedding()
	if err != nil {
		t.Fatal(err)
	}
	return &stats, emb, priced
}

// Every table row, and everything the sweep derives from one, equals
// the one-shot formulation on instances tight enough that repairs
// relocate VNFs — the last one included, which moves the Steiner root
// off the candidate — and that some candidates fit nowhere; instances
// with pre-deployed VNFs, whose hosts a repair reuses for free.
func TestSweeperMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	movedLast, noRoom := 0, 0
	for trial := 0; trial < 60; trial++ {
		net, task := fractionalInstance(rng, 8+rng.Intn(20), 2+rng.Intn(4), 1+rng.Intn(5))
		c := diffTable(t, rng, net, task)
		movedLast, noRoom = movedLast+c.movedLast, noRoom+c.noRoom
	}
	if movedLast == 0 || noRoom == 0 {
		t.Errorf("instances too loose to test repair: %d relocated last hosts, %d infeasible candidates", movedLast, noRoom)
	}
}

// The same on paper networks filled near capacity, where most chains
// relocate VNFs: the table build answers repeated relocation scans
// from its memo, and some memoised hosts have no room left for the row
// asking, because an earlier VNF of the same chain took it. The rows
// still equal the one-shot repair, which scans every time.
func TestChainTableNearCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var c tableCounts
	for trial := 0; trial < 8; trial++ {
		net, err := netgen.Generate(netgen.PaperConfig(30+rng.Intn(40), 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		// Leave each server room for at most one more instance.
		for _, v := range net.ServerList() {
			room := float64(rng.Intn(2))
			for f := rng.Intn(net.CatalogSize()); net.FreeCapacity(v) > room; f = (f + 1) % net.CatalogSize() {
				if !net.IsDeployed(f, v) {
					if err := net.Deploy(f, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < 10; i++ {
			task, err := netgen.GenerateTask(net, rng, 3+rng.Intn(8), 3+rng.Intn(5))
			if err != nil {
				t.Fatal(err)
			}
			c.add(diffTable(t, rng, net, task))
		}
	}
	t.Logf("%d relocation scans, %d memo hits, %d memoised hosts without room, %d last hosts moved, %d chains without room",
		c.scans, c.hits, c.fallbacks, c.movedLast, c.noRoom)
	if c.scans == 0 || c.hits == 0 || c.fallbacks == 0 {
		t.Errorf("the relocation memo was not exercised: %d scans, %d hits, %d fallbacks", c.scans, c.hits, c.fallbacks)
	}
}

// treeCost prices each root once per solve: a repeat, reachable or
// not, gets the price or the verdict of the first call, counted as a
// repeat, under every Steiner routine; a new solve starts empty.
func TestTreeCostMemo(t *testing.T) {
	g := graph.New(8)
	for _, e := range [][3]float64{{0, 1, 2}, {1, 2, 1.5}, {2, 3, 0.7}, {3, 4, 1.1}, {1, 4, 3.3}, {0, 3, 2.9}, {5, 6, 1}} {
		g.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	net := nfv.NewNetwork(g, nfv.DefaultCatalog()[:1])
	for _, v := range []int{1, 3, 5, 7} { // 5 and 7 reach no destination
		if err := net.SetServer(v, 2); err != nil {
			t.Fatal(err)
		}
	}
	task := nfv.Task{Source: 0, Destinations: []int{2, 4}, Chain: nfv.SFC{0}}
	overlay, err := mod.Build(net, task.Source, task.Chain)
	if err != nil {
		t.Fatal(err)
	}
	roots := []int{1, 5, 1, 3, 5, 7, 3, 1}
	for _, algo := range []SteinerAlgo{SteinerKMB, SteinerTM} {
		sc := getScratch(net.NumNodes())
		for solve := 0; solve < 2; solve++ {
			sw := newSweeper(net, task, overlay, algo, sc)
			if algo == SteinerKMB {
				sw.kmb = steiner.NewSweep(net.Graph(), net.Metric(), task.Destinations)
			}
			for _, root := range roots {
				got, err := sw.treeCost(root)
				want, wantErr := buildSteiner(net, net.Metric(), root, task.Destinations, algo)
				if (err == nil) != (wantErr == nil) || err == nil && got != want.Cost {
					t.Fatalf("algo %d, solve %d, root %d: memo says %v (%v), a fresh tree %v (%v)", algo, solve, root, got, err, want.Cost, wantErr)
				}
				if err != nil && !errors.Is(err, steiner.ErrUnreachable) {
					t.Fatalf("algo %d, root %d: %v is not steiner.ErrUnreachable", algo, root, err)
				}
			}
			if sw.kmb != nil {
				sw.kmb.Close()
			}
			if sc.roots.repeats != 4 {
				t.Errorf("algo %d, solve %d: %d repeats answered from the memo, want 4", algo, solve, sc.roots.repeats)
			}
		}
		scratchPool.Put(sc)
	}
}

// The same on what the gates solve: every checked-in conformance
// instance from every source, and tasks of the benchmark's two pools.
// On solve_paper's pool the tree lower bound must spare a good share
// of the KMB trees, and the memo must answer some repeated roots, or
// the winner's equality above proves nothing about either.
func TestChainTableDifferentialCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	paths, err := filepath.Glob("../conformance/testdata/corpus/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("corpus holds only %d instances, want >= 8", len(paths))
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc nfv.InstanceDoc
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		task := doc.Task
		for src := 0; src < doc.Network.NumNodes(); src++ {
			task.Source = src
			diffTable(t, rng, doc.Network, task)
		}
	}
	for i, pool := range []func(testing.TB) (*nfv.Network, []nfv.Task){paperPool, burstPool} {
		net, tasks := pool(t)
		var c tableCounts
		for _, task := range tasks[:12] {
			c.add(diffTable(t, rng, net, task))
		}
		share := float64(c.skipped) / float64(c.priced)
		t.Logf("pool %d: the bound skips %d of %d KMB trees (%.1f%%), %d are repeated roots", i, c.skipped, c.priced, 100*share, c.repeats)
		if i == 0 && (share < 0.30 || c.repeats == 0) {
			t.Errorf("the bound skips %.1f%% of the paper pool's KMB trees, want >= 30%%, and the memo answers %d, want some", 100*share, c.repeats)
		}
	}
}

// Concurrent solves through one scaffold cache — one chain from four
// origins, as burst_shared sends them — share an overlay per origin and
// the table on it: one of them builds the rows, nobody builds them
// again, they are the rows an uncached solve builds, and every result
// equals the uncached solve of the same task bit for bit.
func TestConcurrentSolvesShareOneTable(t *testing.T) {
	net, tasks := burstPool(t)
	tasks = tasks[:32]
	want := make([]*Result, len(tasks))
	for i, task := range tasks {
		var err error
		if want[i], err = Solve(net, task, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	cache := mod.NewCache()
	got, errs := make([]*Result, len(tasks)), make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Solve(net, tasks[i], Options{Scaffolds: cache})
		}()
	}
	wg.Wait()
	for i := range tasks {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("task %d: shared-scaffold solve %+v (%v), uncached %+v", i, got[i], errs[i], want[i])
		}
	}
	origins := map[int]bool{}
	for _, task := range tasks {
		if origins[task.Source] {
			continue
		}
		origins[task.Source] = true
		shared, err := cache.Get(net, task.Source, task.Chain)
		if err != nil {
			t.Fatal(err)
		}
		rows := shared.Candidates(func([]mod.Candidate) []mod.Candidate {
			t.Errorf("origin %d: the shared overlay had no table after its solves", task.Source)
			return nil
		})
		fresh, err := mod.Build(net, task.Source, task.Chain)
		if err != nil {
			t.Fatal(err)
		}
		if alone := newSweeper(net, task, fresh, SteinerKMB, getScratch(net.NumNodes())).chainTable(nil); !slices.Equal(rows, alone) {
			t.Errorf("origin %d: shared table differs from an uncached solve's:\n%v\n%v", task.Source, rows, alone)
		}
	}
	if len(origins) < 2 {
		t.Errorf("%d origins among the tasks, want several sharing the cache", len(origins))
	}
}

// observerFunc adapts a function to Observer.
type observerFunc func(Event)

func (f observerFunc) OnEvent(e Event) { f(e) }

// The table build is chain work, timed as such: when a solve reports
// sfc_solved the overlay already carries its table, so what sweep_end
// times is the task's own sweep and the three sub-phases still tile
// stage one.
func TestTableIsBuiltBeforeSFCSolved(t *testing.T) {
	net, tasks := burstPool(t)
	task, cache, solved := tasks[0], mod.NewCache(), 0
	opts := Options{Scaffolds: cache, Observer: observerFunc(func(e Event) {
		if e.Kind != EventSFCSolved {
			return
		}
		solved++
		overlay, err := cache.Get(net, task.Source, task.Chain)
		if err != nil {
			t.Fatal(err)
		}
		overlay.Candidates(func([]mod.Candidate) []mod.Candidate {
			t.Error("sfc_solved emitted before the candidate table was built")
			return nil
		})
		overlay.Release()
	})}
	if _, err := Solve(net, task, opts); err != nil {
		t.Fatal(err)
	}
	if solved != 1 {
		t.Fatalf("%d sfc_solved events, want 1", solved)
	}
}

type eventLog []Event

func (l *eventLog) OnEvent(e Event) { *l = append(*l, e) }

// The KMB sweep's rare branch, end to end: the steiner package's
// nine-node diamond, padded past APSPAuto's Floyd-Warshall cutoff
// with a tail of switches so the metric is built by Dijkstra, whose
// tie-breaks route 0 -> 6 and 6 -> 8 around opposite sides of the
// diamond. The servers are node 0 and the far end of the tail, so
// every candidate's tree holds the cycle; the solve must say so in its
// sweep_end event, with the candidate the tree lower bound rules out,
// and still return the valid embedding.
func TestSolveReportsGeneralBranchTrees(t *testing.T) {
	g := graph.New(70)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {6, 5}, {6, 4}, {3, 7}, {7, 8}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	g.MustAddEdge(0, 9, 1)
	for v := 10; v < 70; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f", Demand: 1}})
	for _, v := range []int{0, 69} {
		if err := net.SetServer(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	task := nfv.Task{Source: 1, Destinations: []int{6, 8}, Chain: nfv.SFC{0}}
	var log eventLog
	res, err := Solve(net, task, Options{Observer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Fatal(err)
	}
	if res.FinalCost != 1+3+2+2 { // 1 -> 0, then 0 -> 3, 3 -> 6 and 3 -> 8; setup is free
		t.Errorf("cost %v, want 8", res.FinalCost)
	}
	general, skips := -1, -1
	for _, e := range log {
		if e.Kind == EventSweepEnd {
			general, skips = e.GeneralTrees, e.BoundSkips
		}
	}
	// Server 0 priced and built as the winner (1 + 7). Server 69 is not
	// priced: its chain costs 62 and no tree spans {6, 8} for less than
	// d(6, 8) = 4, so 62 + 4 cannot beat 8.
	if general != 2 || skips != 1 {
		t.Errorf("sweep_end reports %d general-branch trees and %d bound skips, want 2 and 1", general, skips)
	}
}
