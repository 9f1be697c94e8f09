package mod

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// materialize is the reference for the implicit overlay: the expanded
// MOD network of Fig. 4 with every arc stored — source to column 1,
// "in" to "out", "out" of column j to "in" of column j+1, rows
// ascending — for digraph's heap Dijkstra to run over. Node 0 is
// the source; column j's row r is the pair (in, in+1) at
// 1 + 2*((j-1)*S + r). It returns nil when no server is reachable from
// the source.
func materialize(t testing.TB, net *nfv.Network, source int, chain nfv.SFC) *digraph {
	t.Helper()
	servers := net.ServerList()
	metric := net.Metric()
	k, s := len(chain), len(servers)
	in := func(j, row int) int { return 1 + 2*((j-1)*s+row) }
	dg := newDigraph(1 + 2*k*s)
	add := func(u, v int, cost float64) {
		if err := dg.AddArc(u, v, cost); err != nil {
			t.Fatalf("oracle arc %d->%d: %v", u, v, err)
		}
	}
	for r, v := range servers {
		if d := metric.Dist[source][v]; d != graph.Inf {
			add(0, in(1, r), d)
		}
		for j := 1; j <= k; j++ {
			add(in(j, r), in(j, r)+1, net.SetupCost(chain[j-1], v))
		}
	}
	if len(dg.Out(0)) == 0 {
		return nil
	}
	for j := 1; j < k; j++ {
		for ra, va := range servers {
			for rb, vb := range servers {
				if d := metric.Dist[va][vb]; d != graph.Inf {
					add(in(j, ra)+1, in(j+1, rb), d)
				}
			}
		}
	}
	return dg
}

// diffOverlay solves (net, source, chain) with the column pass and
// with Dijkstra over the materialized overlay, and holds the pass to
// its contract at every overlay node: (i) distances equal bit for bit;
// (ii) the predecessor is, by brute force, the first in ascending
// (out, row) order among the rows attaining the minimum; (iii) where
// that differs from the parent Dijkstra kept, the two rows' out values
// are equal — the heap's sift order used to pick between them. It
// returns how many predecessors differ, of how many.
func diffOverlay(t testing.TB, net *nfv.Network, source int, chain nfv.SFC) (differ, parents int) {
	t.Helper()
	want := materialize(t, net, source, chain)
	m, err := Build(net, source, chain)
	if want == nil {
		if !errors.Is(err, ErrSourceUnreachable) {
			t.Fatalf("Build = %v, want ErrSourceUnreachable (oracle has no source arc)", err)
		}
		return 0, 0
	}
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := overlayNodes(m); got != want.NumNodes() {
		t.Fatalf("overlay nodes = %d, materialized %d", got, want.NumNodes())
	}
	if got := m.NumOverlayArcs(); got != want.NumArcs() {
		t.Fatalf("NumOverlayArcs = %d, materialized %d", got, want.NumArcs())
	}
	sol, ref := m.SolveSFC(), want.Dijkstra(0)
	servers, metric := net.ServerList(), net.Metric()
	s := len(servers)
	for j := 1; j <= len(chain); j++ {
		for r, v := range servers {
			cell := (j-1)*s + r
			in := 1 + 2*cell
			if sol.out[cell] != ref.Dist[in+1] {
				t.Fatalf("column %d row %d: out %v, materialized %v", j, r, sol.out[cell], ref.Dist[in+1])
			}
			p := int(sol.pred[cell])
			if j == 1 {
				if p != -1 {
					t.Fatalf("column 1 row %d: predecessor %d, want -1", r, p)
				}
				continue
			}
			prev := sol.out[(j-2)*s : (j-1)*s]
			// The brute-force minimum, and its first row in (out, row) order.
			best, arg := graph.Inf, -1
			for a, va := range servers {
				switch nd := prev[a] + metric.Dist[va][v]; {
				case nd < best:
					best, arg = nd, a
				case nd == best && nd != graph.Inf && prev[a] < prev[arg]:
					arg = a
				}
			}
			if best != ref.Dist[in] {
				t.Fatalf("column %d row %d: in %v, materialized %v", j, r, best, ref.Dist[in])
			}
			if p != arg {
				t.Fatalf("column %d row %d: predecessor row %d, first in (out, row) order is %d", j, r, p, arg)
			}
			if p == -1 {
				continue
			}
			parents++
			if heap := (ref.Parent[in] - 2) / 2 % s; heap != p {
				differ++
				if prev[heap] != prev[p] {
					t.Fatalf("column %d row %d: predecessor row %d (out %v), Dijkstra kept row %d (out %v): not a tie",
						j, r, p, prev[p], heap, prev[heap])
				}
			}
		}
	}
	return differ, parents
}

// prefixChain is the chain 0..k-1, clipped to the catalog.
func prefixChain(net *nfv.Network, k int) nfv.SFC {
	if k > net.CatalogSize() {
		k = net.CatalogSize()
	}
	chain := make(nfv.SFC, k)
	for j := range chain {
		chain[j] = j
	}
	return chain
}

const corpusDir = "../conformance/testdata/corpus"

// corpusDocs returns the checked-in conformance instances, raw.
func corpusDocs(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("corpus holds only %d instances, want >= 8", len(paths))
	}
	docs := make(map[string][]byte, len(paths))
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs[filepath.Base(p)] = blob
	}
	return docs
}

// An overlayCase is one (network, source, chain) triple; a family
// visits its cases in a fixed order.
type (
	overlayCase func(net *nfv.Network, source int, chain nfv.SFC)
	family      func(t testing.TB, visit overlayCase)
)

// corpusCases visits one conformance instance with its own task and
// with every node as the source of a prefix chain.
func corpusCases(t testing.TB, blob []byte, visit overlayCase) {
	t.Helper()
	var doc nfv.InstanceDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	visit(doc.Network, doc.Task.Source, doc.Task.Chain)
	for src := 0; src < doc.Network.NumNodes(); src++ {
		visit(doc.Network, src, prefixChain(doc.Network, 3))
	}
}

// TestOverlayDifferentialCorpus covers every checked-in conformance
// instance, the unit-weight strata (fat-tree, Abilene) included. No
// predecessor differs from Dijkstra's: the corpus needed no new
// baseline.
func TestOverlayDifferentialCorpus(t *testing.T) {
	for name, blob := range corpusDocs(t) {
		t.Run(name, func(t *testing.T) {
			requireNoDiffering(t, func(t testing.TB, visit overlayCase) { corpusCases(t, blob, visit) })
		})
	}
}

// countDiffering runs diffOverlay over a family and totals its counts.
func countDiffering(t *testing.T, cases family) (differ, parents int) {
	t.Helper()
	cases(t, func(net *nfv.Network, source int, chain nfv.SFC) {
		d, p := diffOverlay(t, net, source, chain)
		differ, parents = differ+d, parents+p
	})
	t.Logf("%d of %d predecessors differ from Dijkstra's", differ, parents)
	return differ, parents
}

// requireNoDiffering requires every predecessor of a family to be the
// one Dijkstra kept.
func requireNoDiffering(t *testing.T, cases family) {
	t.Helper()
	if differ, parents := countDiffering(t, cases); differ != 0 || parents == 0 {
		t.Errorf("%d of %d predecessors differ from Dijkstra's, want 0 of some", differ, parents)
	}
}

// unreachableCases splits the servers over two components: from a
// source in one, the other's servers are rows with no source arc and
// no arc from the reachable rows. Server 6 is isolated: no row reaches
// it, so from column 2 on its in stays +Inf.
func unreachableCases(t testing.TB, visit overlayCase) {
	t.Helper()
	g := graph.New(7)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 2) // equal-cost ways round the triangle
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog()[:4])
	for _, v := range []int{1, 2, 4, 5, 6} {
		if err := net.SetServer(v, 3); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if err := net.SetSetupCost(f, v, float64(1+(f+v)%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.Deploy(1, 2); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < net.NumNodes(); src++ {
		for k := 1; k <= 4; k++ {
			visit(net, src, prefixChain(net, k))
		}
	}
	// Node 0 reaches no server once 1 and 2 lose their links to it.
	lone := graph.New(3)
	lone.MustAddEdge(1, 2, 1)
	bare := nfv.NewNetwork(lone, nfv.DefaultCatalog()[:2])
	if err := bare.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	visit(bare, 0, nfv.SFC{0})
}

func TestOverlayDifferentialUnreachable(t *testing.T) {
	requireNoDiffering(t, unreachableCases)
}

// generatedCases sweeps seeded netgen networks: chain lengths from 1,
// repeated VNFs in a chain, networks where only a fraction of the
// nodes are servers, and the pre-deployments the generator scatters
// (zero-weight virtual arcs).
func generatedCases(t testing.TB, visit overlayCase) {
	t.Helper()
	const nets = 60
	for seed := int64(1); seed <= nets; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := netgen.PaperConfig(8+rng.Intn(30), 2)
		if seed%2 == 0 {
			cfg.ServerFraction = 0.3 + 0.5*rng.Float64()
		}
		net, err := netgen.Generate(cfg, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for trial := 0; trial < 4; trial++ {
			k := 1 + (int(seed)+trial)%6
			chain := make(nfv.SFC, k)
			for j := range chain {
				chain[j] = rng.Intn(net.CatalogSize())
			}
			visit(net, rng.Intn(net.NumNodes()), chain)
		}
	}
}

func TestOverlayDifferentialGenerated(t *testing.T) {
	requireNoDiffering(t, generatedCases)
}

// tiesCases makes equal-cost chains the rule: unit link weights on a
// torus and setup costs from {0, 1, 2}, so many rows of a column share
// one out value and which of them a node keeps as its predecessor is
// decided by the (out, row) order alone.
func tiesCases(t testing.TB, visit overlayCase) {
	t.Helper()
	const side = 5
	g := graph.New(side * side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			g.MustAddEdge(x*side+y, x*side+(y+1)%side, 1)
			g.MustAddEdge(x*side+y, ((x+1)%side)*side+y, 1)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := nfv.NewNetwork(g, nfv.DefaultCatalog()[:5])
		for v := 0; v < g.NumNodes(); v++ {
			if seed%3 == 0 && rng.Intn(4) == 0 {
				continue // a switch
			}
			if err := net.SetServer(v, 5); err != nil {
				t.Fatal(err)
			}
			for f := 0; f < net.CatalogSize(); f++ {
				if err := net.SetSetupCost(f, v, float64(rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for src := 0; src < g.NumNodes(); src += 3 {
			for k := 1; k <= 5; k++ {
				visit(net, src, prefixChain(net, k))
			}
		}
	}
}

// TestOverlayDifferentialTies is where the column pass and the heap
// part ways: both keep a predecessor of minimal (out + link) and of
// minimal out among those, and the torus has many. The count must be
// positive or clause (iii) of diffOverlay was never exercised.
func TestOverlayDifferentialTies(t *testing.T) {
	if differ, parents := countDiffering(t, tiesCases); differ == 0 {
		t.Errorf("0 of %d predecessors differ from Dijkstra's: the torus no longer produces bit-equal ties", parents)
	}
}

// solveUnpruned is the column pass without its stopping bound: every
// row with a finite out relaxed, in ascending (out, row) order.
func solveUnpruned(m *Network) (out []float64, pred []int32) {
	s, k := len(m.servers), len(m.chain)
	out, pred = make([]float64, k*s), make([]int32, k*s)
	for r, v := range m.servers {
		out[r], pred[r] = m.metric.Dist[m.source][v]+m.setup[r], -1
	}
	for j := 1; j < k; j++ {
		prev := out[(j-1)*s : j*s]
		var rows []int
		for a := range prev {
			if prev[a] != graph.Inf {
				rows = append(rows, a)
			}
		}
		sort.SliceStable(rows, func(x, y int) bool { return prev[rows[x]] < prev[rows[y]] })
		for r, v := range m.servers {
			cell := j*s + r
			out[cell], pred[cell] = graph.Inf, -1
			for _, a := range rows {
				if nd := prev[a] + m.metric.Dist[m.servers[a]][v]; nd < out[cell] {
					out[cell], pred[cell] = nd, int32(a)
				}
			}
			out[cell] += m.setup[cell]
		}
	}
	return out, pred
}

// requireBoundExact holds m's solution to the unpruned pass, slab for
// slab.
func requireBoundExact(t testing.TB, m *Network) *SFCSolution {
	t.Helper()
	sol := m.SolveSFC()
	out, pred := solveUnpruned(m)
	if !slices.Equal(sol.out, out) || !slices.Equal(sol.pred, pred) {
		t.Fatalf("source %d chain %v: pruned pass (out %v, pred %v), unpruned (out %v, pred %v)",
			m.source, m.chain, sol.out, sol.pred, out, pred)
	}
	if sol.rowsRelaxed+sol.rowsDominated > sol.rowsFinite {
		t.Fatalf("source %d chain %v: relaxed %d and skipped %d of %d finite rows",
			m.source, m.chain, sol.rowsRelaxed, sol.rowsDominated, sol.rowsFinite)
	}
	return sol
}

// adversarialDocs are four instances built against the column pass's
// shortcuts, as documents so the fuzzer starts from them too:
//   - torus: unit links and setup costs from {0, 1, 2}, so rows tie
//     bit for bit and a dominated row is often one tied with its
//     undercutter;
//   - deployed: every chain VNF already runs at the source, so the
//     source's row has out = 0 in every column and the slack's relative
//     term vanishes;
//   - orders: links nine orders of magnitude apart, where rounding
//     makes a row some relaxed row undercuts the only way to a far
//     row, which only the slack's absolute term covers;
//   - split: servers in two components plus an isolated one, so some
//     rows stay at +Inf and the stopping bound never fires.
func adversarialDocs(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(83))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	docs := map[string][]byte{}
	add := func(name string, net *nfv.Network, source int, chain nfv.SFC, dest int) {
		blob, err := json.Marshal(nfv.InstanceDoc{Network: net,
			Task: nfv.Task{Source: source, Destinations: []int{dest}, Chain: chain}})
		must(err)
		docs[name] = blob
	}

	const side = 5
	g := graph.New(side * side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			g.MustAddEdge(x*side+y, x*side+(y+1)%side, 1)
			g.MustAddEdge(x*side+y, ((x+1)%side)*side+y, 1)
		}
	}
	torus := nfv.NewNetwork(g, nfv.DefaultCatalog()[:5])
	for v := 0; v < g.NumNodes(); v++ {
		must(torus.SetServer(v, 5))
		for f := 0; f < torus.CatalogSize(); f++ {
			must(torus.SetSetupCost(f, v, float64(rng.Intn(3))))
		}
	}
	add("torus", torus, 0, nfv.SFC{0, 1, 2, 3, 4}, 12)

	deployed := buildNet(rng, 24, 20, 5)
	for f := 0; f < 5; f++ {
		must(deployed.Deploy(f, 7))
	}
	add("deployed", deployed, 7, nfv.SFC{0, 1, 2, 3, 4}, 19)

	// Source 0 hosts l_1 for σ, its neighbour 1 for nothing, and node
	// 2 hangs off the source by a link H = 1024, nine orders above the
	// short link δ. With u the spacing of floats near H, δ = (k+0.51)u
	// and σ = (2k+1.22)u: row 1 (out δ) reaches row 0 for 2δ, just
	// under σ, and reaches node 2 for H+(2k+2)u after two roundings up,
	// while row 0 reaches it for H+(2k+1)u. Row 0 is no slower by the
	// triangle inequality and faster in floats, so only the slack's
	// absolute term keeps it relaxed.
	u, k := math.Ldexp(1, -42), 4.5e6
	g = graph.New(3)
	g.MustAddEdge(0, 1, (k+0.51)*u)
	g.MustAddEdge(0, 2, 1024)
	orders := nfv.NewNetwork(g, nfv.DefaultCatalog()[:2])
	for v, c := range []float64{(2*k + 1.22) * u, 0, 1} {
		must(orders.SetServer(v, 5))
		must(orders.SetSetupCost(0, v, c))
	}
	add("orders", orders, 0, nfv.SFC{0, 1}, 2)

	g = graph.New(9)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {4, 5}, {5, 6}} {
		g.MustAddEdge(e[0], e[1], 1+rng.Float64())
	}
	split := nfv.NewNetwork(g, nfv.DefaultCatalog()[:4])
	for _, v := range []int{1, 2, 3, 5, 6, 7} {
		must(split.SetServer(v, 3))
		for f := 0; f < 4; f++ {
			must(split.SetSetupCost(f, v, 1+rng.Float64()))
		}
	}
	add("split", split, 0, nfv.SFC{0, 1, 2, 3}, 3)
	return docs
}

// TestColumnBoundIsExact: stopping a column once the next predecessor's
// out is no smaller than the largest tentative in, and skipping a row a
// relaxed row already undercuts, change nothing.
func TestColumnBoundIsExact(t *testing.T) {
	relaxed, dominated, finite := 0, 0, 0
	check := func(net *nfv.Network, source int, chain nfv.SFC) *SFCSolution {
		t.Helper()
		m, err := Build(net, source, chain)
		if errors.Is(err, ErrSourceUnreachable) {
			return nil
		}
		if err != nil {
			t.Fatal(err)
		}
		sol := requireBoundExact(t, m)
		relaxed, dominated, finite = relaxed+sol.rowsRelaxed, dominated+sol.rowsDominated, finite+sol.rowsFinite
		return sol
	}
	visit := func(net *nfv.Network, source int, chain nfv.SFC) { check(net, source, chain) }
	for _, blob := range corpusDocs(t) {
		corpusCases(t, blob, visit)
	}
	generatedCases(t, visit)
	tiesCases(t, visit)
	if relaxed == 0 || relaxed+dominated >= finite {
		t.Errorf("the bound never fired: %d of %d rows relaxed, %d skipped", relaxed, finite, dominated)
	}
	for name, blob := range adversarialDocs(t) {
		before := dominated
		corpusCases(t, blob, visit)
		if dominated == before && name != "orders" { // orders is built to have no row to skip
			t.Errorf("%s: no row was skipped as dominated", name)
		}
	}
	if dominated == 0 {
		t.Errorf("no row was skipped as dominated (%d relaxed of %d)", relaxed, finite)
	}
	t.Logf("%d rows relaxed and %d skipped as dominated, of %d finite", relaxed, dominated, finite)

	// A row no other row reaches keeps in = +Inf, so the largest
	// tentative in is +Inf and the bound must never fire: every finite
	// row is relaxed or skipped as dominated.
	unreachableCases(t, func(net *nfv.Network, source int, chain nfv.SFC) {
		if sol := check(net, source, chain); sol != nil && sol.rowsRelaxed+sol.rowsDominated != sol.rowsFinite {
			t.Fatalf("source %d chain %v: relaxed %d and skipped %d of %d finite rows with a row at +Inf",
				source, chain, sol.rowsRelaxed, sol.rowsDominated, sol.rowsFinite)
		}
	})

	// Edges of the recurrence: a single column, a single row, zero
	// virtual arcs everywhere, and a host that cannot run one VNF.
	net := buildNet(rand.New(rand.NewSource(71)), 12, 8, 4)
	check(net, 3, nfv.SFC{2})
	free := buildNet(rand.New(rand.NewSource(72)), 12, 8, 4)
	for _, v := range free.ServerList() {
		for f := 0; f < free.CatalogSize(); f++ {
			if err := free.SetSetupCost(f, v, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(free, 0, nfv.SFC{0, 1, 2, 3})
	if err := net.SetSetupCost(1, 5, graph.Inf); err != nil {
		t.Fatal(err)
	}
	barred := check(net, 3, nfv.SFC{0, 1, 2})
	if hosts := barred.HostsTo(7); hosts == nil || hosts[1] == 5 {
		t.Errorf("chain to 7 is %v: want one avoiding node 5 for its second VNF", hosts)
	}
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 1)
	single := nfv.NewNetwork(g, nfv.DefaultCatalog()[:3])
	if err := single.SetServer(2, 9); err != nil {
		t.Fatal(err)
	}
	if sol := check(single, 0, nfv.SFC{0, 1, 2}); !slices.Equal(sol.HostsTo(2), []int{2, 2, 2}) {
		t.Errorf("one-server chain is %v, want [2 2 2]", sol.HostsTo(2))
	}
}

// FuzzOverlayDifferential runs the same comparison on arbitrary
// instance documents, seeded like the harness's FuzzDifferential with
// the checked-in corpus, and with adversarialDocs.
func FuzzOverlayDifferential(f *testing.F) {
	for _, blob := range corpusDocs(f) {
		f.Add(blob)
	}
	for _, blob := range adversarialDocs(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc nfv.InstanceDoc
		if err := json.Unmarshal(data, &doc); err != nil || doc.Network == nil {
			return
		}
		net, task := doc.Network, doc.Task
		if net.NumNodes() > 40 || net.Graph().NumEdges() > 200 || task.K() > 5 {
			return
		}
		m, err := Build(net, task.Source, task.Chain)
		if err != nil && !errors.Is(err, ErrSourceUnreachable) {
			return // chains, sources and networks Build rejects
		}
		diffOverlay(t, net, task.Source, task.Chain)
		if err == nil {
			requireBoundExact(t, m)
		}
	})
}
