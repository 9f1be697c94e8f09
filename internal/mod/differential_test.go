package mod

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// materialize is the reference for the implicit overlay: the expanded
// MOD network of Fig. 4 with every arc stored, built in the order
// SolveSFC promises to enumerate them. graph.Digraph's Dijkstra uses
// the same heap and the same strict-< relaxation, so on equal input
// the two must agree on every distance and on every parent, ties
// included. It returns nil when no server is reachable from the
// source.
func materialize(t testing.TB, net *nfv.Network, source int, chain nfv.SFC) *graph.Digraph {
	t.Helper()
	servers := net.ServerList()
	metric := net.Metric()
	k, s := len(chain), len(servers)
	in := func(j, row int) int { return 1 + 2*((j-1)*s+row) }
	dg := graph.NewDigraph(1 + 2*k*s)
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

// diffOverlay solves (net, source, chain) over the implicit overlay
// and over the materialized one and requires identical shortest-path
// trees and identical logical sizes.
func diffOverlay(t testing.TB, net *nfv.Network, source int, chain nfv.SFC) {
	t.Helper()
	want := materialize(t, net, source, chain)
	m, err := Build(net, source, chain)
	if want == nil {
		if !errors.Is(err, ErrSourceUnreachable) {
			t.Fatalf("Build = %v, want ErrSourceUnreachable (oracle has no source arc)", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := m.NumOverlayNodes(); got != want.NumNodes() {
		t.Fatalf("NumOverlayNodes = %d, materialized %d", got, want.NumNodes())
	}
	if got := m.NumOverlayArcs(); got != want.NumArcs() {
		t.Fatalf("NumOverlayArcs = %d, materialized %d", got, want.NumArcs())
	}
	got, ref := m.SolveSFC().tree, want.Dijkstra(0)
	for id := range ref.Dist {
		if got.Dist[id] != ref.Dist[id] || got.Parent[id] != ref.Parent[id] {
			t.Fatalf("overlay node %d: implicit (dist %v, parent %d), materialized (dist %v, parent %d)",
				id, got.Dist[id], got.Parent[id], ref.Dist[id], ref.Parent[id])
		}
	}
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

// TestOverlayDifferentialCorpus covers every checked-in conformance
// instance, the unit-weight strata (fat-tree, Abilene) included, with
// the instance's own task and with every node as the source of a
// prefix chain.
func TestOverlayDifferentialCorpus(t *testing.T) {
	for name, blob := range corpusDocs(t) {
		t.Run(name, func(t *testing.T) {
			var doc nfv.InstanceDoc
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatal(err)
			}
			diffOverlay(t, doc.Network, doc.Task.Source, doc.Task.Chain)
			for src := 0; src < doc.Network.NumNodes(); src++ {
				diffOverlay(t, doc.Network, src, prefixChain(doc.Network, 3))
			}
		})
	}
}

// TestOverlayDifferentialUnreachable splits the servers over two
// components: from a source in one, the other's servers are rows with
// no source arc and no arc from the reachable rows.
func TestOverlayDifferentialUnreachable(t *testing.T) {
	g := graph.New(7)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 2) // equal-cost ways round the triangle
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog()[:4])
	for _, v := range []int{1, 2, 4, 5, 6} { // 6 is an isolated server
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
			diffOverlay(t, net, src, prefixChain(net, k))
		}
	}
	// Node 0 reaches no server once 1 and 2 lose their links to it.
	lone := graph.New(3)
	lone.MustAddEdge(1, 2, 1)
	bare := nfv.NewNetwork(lone, nfv.DefaultCatalog()[:2])
	if err := bare.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	diffOverlay(t, bare, 0, nfv.SFC{0})
}

// TestOverlayDifferentialGenerated sweeps seeded netgen networks:
// chain lengths from 1, repeated VNFs in a chain, networks where only
// a fraction of the nodes are servers, and the pre-deployments the
// generator scatters (zero-weight virtual arcs).
func TestOverlayDifferentialGenerated(t *testing.T) {
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
			diffOverlay(t, net, rng.Intn(net.NumNodes()), chain)
		}
	}
}

// TestOverlayDifferentialTies makes equal-cost chains the rule: unit
// link weights on a torus and setup costs from {0, 1, 2}, so which
// parent a node keeps depends on the order arcs are relaxed in and on
// the heap's handling of equal priorities.
func TestOverlayDifferentialTies(t *testing.T) {
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
				diffOverlay(t, net, src, prefixChain(net, k))
			}
		}
	}
}

// FuzzOverlayDifferential runs the same comparison on arbitrary
// instance documents, seeded like the harness's FuzzDifferential with
// the checked-in corpus.
func FuzzOverlayDifferential(f *testing.F) {
	for _, blob := range corpusDocs(f) {
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
		if _, err := Build(net, task.Source, task.Chain); err != nil && !errors.Is(err, ErrSourceUnreachable) {
			return // chains, sources and networks Build rejects
		}
		diffOverlay(t, net, task.Source, task.Chain)
	})
}
