package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/nfv"
)

// workedExample builds the hand-verified SFT scenario used throughout
// this file:
//
//	S=0 --1-- A=1 --1-- B=2 --1-- d1=3
//	           |          \
//	           2           2.5
//	           |             \
//	          C=4 ----1---- d2=5
//
// Servers A, B, C (capacity 5). Chain (f1 -> f2). f1 deployed on A,
// f2 deployed on B and C; new setups cost 1 (f1) and 5 (f2).
//
// Stage one optimum: f1@A, f2@B, Steiner tree {B-d1, B-C, C-d2},
// total 6.5. Stage two re-homes d2 onto the pre-deployed f2@C
// (connection via A-C), dropping the B-C link: total 6.0.
func workedExample(t *testing.T) (*nfv.Network, nfv.Task) {
	t.Helper()
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)   // S-A
	g.MustAddEdge(1, 2, 1)   // A-B
	g.MustAddEdge(2, 3, 1)   // B-d1
	g.MustAddEdge(1, 4, 2)   // A-C
	g.MustAddEdge(4, 5, 1)   // C-d2
	g.MustAddEdge(2, 4, 2.5) // B-C
	catalog := []nfv.VNF{
		{ID: 0, Name: "f1", Demand: 1},
		{ID: 1, Name: "f2", Demand: 1},
	}
	net := nfv.NewNetwork(g, catalog)
	for _, v := range []int{1, 2, 4} {
		if err := net.SetServer(v, 5); err != nil {
			t.Fatal(err)
		}
		if err := net.SetSetupCost(0, v, 1); err != nil {
			t.Fatal(err)
		}
		if err := net.SetSetupCost(1, v, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []struct{ f, v int }{{0, 1}, {1, 2}, {1, 4}} {
		if err := net.Deploy(d.f, d.v); err != nil {
			t.Fatal(err)
		}
	}
	task := nfv.Task{Source: 0, Destinations: []int{3, 5}, Chain: nfv.SFC{0, 1}}
	return net, task
}

func TestWorkedExampleStageOne(t *testing.T) {
	net, task := workedExample(t)
	res, err := SolveStageOne(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Stage1Cost-6.5) > 1e-9 {
		t.Errorf("stage-one cost = %v, want 6.5", res.Stage1Cost)
	}
	if res.LastHost != 2 {
		t.Errorf("last host = %d, want 2 (B)", res.LastHost)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("stage-one embedding invalid: %v", err)
	}
}

func TestWorkedExampleTwoStage(t *testing.T) {
	net, task := workedExample(t)
	res, err := Solve(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Stage1Cost-6.5) > 1e-9 {
		t.Errorf("stage-one cost = %v, want 6.5", res.Stage1Cost)
	}
	if math.Abs(res.FinalCost-6.0) > 1e-9 {
		t.Errorf("final cost = %v, want 6.0 (OPA re-homes d2 to f2@C)", res.FinalCost)
	}
	if res.MovesAccepted != 1 {
		t.Errorf("moves = %d, want 1", res.MovesAccepted)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("final embedding invalid: %v", err)
	}
	if got := net.Cost(res.Embedding).Total; math.Abs(got-res.FinalCost) > 1e-9 {
		t.Errorf("reported cost %v != recomputed %v", res.FinalCost, got)
	}
	// d2 must now be served by the pre-deployed f2 on C (node 4).
	if got := res.Embedding.ServingNode(1, 2); got != 4 {
		t.Errorf("d2 level-2 host = %d, want 4 (C)", got)
	}
	// No new instances: everything was reused.
	if len(res.Embedding.NewInstances) != 0 {
		t.Errorf("new instances = %v, want none (all reused)", res.Embedding.NewInstances)
	}
}

// randomInstance builds a random connected network and task for
// property-style checks. All nodes are servers; capacities, setup
// costs and deployments are randomized.
func randomInstance(rng *rand.Rand, n, k, nd int) (*nfv.Network, nfv.Task) {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	catalogSize := k + 2
	catalog := make([]nfv.VNF, catalogSize)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 1}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if err := net.SetServer(v, float64(1+rng.Intn(5))); err != nil {
			panic(err)
		}
		for f := range catalog {
			if err := net.SetSetupCost(f, v, rng.Float64()*8); err != nil {
				panic(err)
			}
		}
	}
	// Random pre-deployments respecting capacity.
	for i := 0; i < n; i++ {
		f, v := rng.Intn(catalogSize), rng.Intn(n)
		if !net.IsDeployed(f, v) && net.FreeCapacity(v) >= 1 {
			if err := net.Deploy(f, v); err != nil {
				panic(err)
			}
		}
	}
	perm := rng.Perm(n)
	task := nfv.Task{
		Source:       perm[0],
		Destinations: perm[1 : 1+nd],
		Chain:        make(nfv.SFC, k),
	}
	for j := range task.Chain {
		task.Chain[j] = j
	}
	return net, task
}

func TestSolveRandomInstancesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(17) // 8..24 nodes
		k := 1 + rng.Intn(4)
		nd := 1 + rng.Intn(5)
		net, task := randomInstance(rng, n, k, nd)
		res, err := Solve(net, task, Options{})
		if errors.Is(err, ErrNoFeasible) {
			continue // tight random capacities can make instances infeasible
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := net.Validate(res.Embedding); err != nil {
			t.Fatalf("trial %d: invalid embedding: %v", trial, err)
		}
		if res.FinalCost > res.Stage1Cost+1e-9 {
			t.Fatalf("trial %d: OPA increased cost %v -> %v", trial, res.Stage1Cost, res.FinalCost)
		}
		if got := net.Cost(res.Embedding).Total; math.Abs(got-res.FinalCost) > 1e-6 {
			t.Fatalf("trial %d: reported %v != recomputed %v", trial, res.FinalCost, got)
		}
	}
}

func TestSolveStageOneMatchesCostOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		net, task := randomInstance(rng, 10+rng.Intn(10), 1+rng.Intn(3), 1+rng.Intn(4))
		res, err := SolveStageOne(net, task, Options{})
		if errors.Is(err, ErrNoFeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := net.Cost(res.Embedding).Total; math.Abs(got-res.Stage1Cost) > 1e-6 {
			t.Fatalf("trial %d: stage-one cost %v != oracle %v", trial, res.Stage1Cost, got)
		}
	}
}

func TestSolveWithTakahashiMatsuyama(t *testing.T) {
	net, task := workedExample(t)
	res, err := Solve(net, task, Options{Steiner: SteinerTM})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("TM embedding invalid: %v", err)
	}
	// On this small instance TM and KMB agree.
	if math.Abs(res.FinalCost-6.0) > 1e-9 {
		t.Errorf("final cost with TM = %v, want 6.0", res.FinalCost)
	}
}

func TestSolveTightCapacityForcesRelocation(t *testing.T) {
	// Line S=0 - A=1 - B=2 - d=3; chain (f1,f2); A can host only one
	// instance and f1's setup is far cheaper on A. The repair step must
	// move one of the two VNFs elsewhere and the result must validate.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	catalog := []nfv.VNF{{ID: 0, Name: "f1", Demand: 1}, {ID: 1, Name: "f2", Demand: 1}}
	net := nfv.NewNetwork(g, catalog)
	if err := net.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetServer(2, 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2} {
		if err := net.SetSetupCost(0, v, 1); err != nil {
			t.Fatal(err)
		}
		if err := net.SetSetupCost(1, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0, 1}}
	res, err := Solve(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Both instances cannot share a node: exactly one on A, one on B.
	if len(res.Embedding.NewInstances) != 2 {
		t.Fatalf("instances = %v", res.Embedding.NewInstances)
	}
	nodes := map[int]bool{}
	for _, inst := range res.Embedding.NewInstances {
		nodes[inst.Node] = true
	}
	if len(nodes) != 2 {
		t.Errorf("capacity violated: both instances on one node: %v", res.Embedding.NewInstances)
	}
}

func TestSolveInfeasibleCapacity(t *testing.T) {
	// Single server with capacity 1 but a 2-VNF chain: infeasible.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	catalog := []nfv.VNF{{ID: 0, Name: "f1", Demand: 1}, {ID: 1, Name: "f2", Demand: 1}}
	net := nfv.NewNetwork(g, catalog)
	if err := net.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	task := nfv.Task{Source: 0, Destinations: []int{2}, Chain: nfv.SFC{0, 1}}
	if _, err := Solve(net, task, Options{}); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("got %v, want ErrNoFeasible", err)
	}
}

func TestSolveDisconnectedDestination(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	// node 2,3 in a separate component
	g.MustAddEdge(2, 3, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog())
	if err := net.SetServer(1, 5); err != nil {
		t.Fatal(err)
	}
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	if _, err := Solve(net, task, Options{}); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("got %v, want ErrNoFeasible", err)
	}
}

func TestSolveInvalidTask(t *testing.T) {
	net, _ := workedExample(t)
	bad := nfv.Task{Source: 0, Destinations: nil, Chain: nfv.SFC{0}}
	if _, err := Solve(net, bad, Options{}); !errors.Is(err, nfv.ErrInvalidTask) {
		t.Errorf("got %v, want ErrInvalidTask", err)
	}
}

func TestSolveDestinationEqualsSource(t *testing.T) {
	// The source may also be a destination; the walk loops out to the
	// chain and back.
	net, _ := workedExample(t)
	task := nfv.Task{Source: 0, Destinations: []int{0, 3}, Chain: nfv.SFC{0, 1}}
	res, err := Solve(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestSolveSingleDestinationReducesToSFC(t *testing.T) {
	// With one destination the SFT degenerates to an SFC; stage two
	// has no independent paths to optimize (destination is the only
	// leaf), so costs should match stage one.
	net, _ := workedExample(t)
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0, 1}}
	res, err := Solve(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Chain f1@A, f2@B then B-d1: cost 1+1+1 = 3 (all setups reused).
	if math.Abs(res.FinalCost-3) > 1e-9 {
		t.Errorf("final = %v, want 3", res.FinalCost)
	}
}

func TestOptimizeEmbeddingFromExternalSolution(t *testing.T) {
	net, task := workedExample(t)
	// Deliberately poor stage-one solution: f1@A, f2@B but route both
	// destinations through per-destination tails from B.
	metric := net.Metric()
	hosts := []int{1, 2}
	tails := [][]int{
		metric.Path(2, 3),
		metric.Path(2, 5),
	}
	res, err := OptimizeEmbedding(net, task, hosts, tails, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if res.FinalCost > res.Stage1Cost+1e-9 {
		t.Errorf("OPA increased cost: %v -> %v", res.Stage1Cost, res.FinalCost)
	}
	if math.Abs(res.FinalCost-6.0) > 1e-9 {
		t.Errorf("final = %v, want 6.0", res.FinalCost)
	}
}

func TestOptimizeEmbeddingValidation(t *testing.T) {
	net, task := workedExample(t)
	if _, err := OptimizeEmbedding(net, task, []int{1}, [][]int{{2, 3}, {4, 5}}, Options{}); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("short hosts: got %v", err)
	}
	if _, err := OptimizeEmbedding(net, task, []int{1, 2}, [][]int{{2, 3}}, Options{}); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("short tails: got %v", err)
	}
}
