package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/nfv"
)

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
	catalog := make([]nfv.VNF, k+2)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 1}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if err := net.SetServer(v, float64(2+rng.Intn(4))); err != nil {
			panic(err)
		}
		for f := range catalog {
			if err := net.SetSetupCost(f, v, rng.Float64()*6); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < n/3; i++ {
		f, v := rng.Intn(len(catalog)), rng.Intn(n)
		if !net.IsDeployed(f, v) && net.FreeCapacity(v) >= 1 {
			if err := net.Deploy(f, v); err != nil {
				panic(err)
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

func TestBruteForceValidatesAndBeatsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		net, task := randomInstance(rng, 4+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(2))
		emb, cost, err := BruteForce(net, task, 100000)
		if errors.Is(err, core.ErrNoFeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := net.Validate(emb); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if got := net.Cost(emb).Total; math.Abs(got-cost) > 1e-9 {
			t.Fatalf("trial %d: cost mismatch %v vs %v", trial, got, cost)
		}
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, task := randomInstance(rng, 10, 3, 4)
	if _, _, err := BruteForce(net, task, 1000); !errors.Is(err, ErrTooLarge) {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}

func TestBestKnownNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		net, task := randomInstance(rng, 12+rng.Intn(8), 1+rng.Intn(3), 2+rng.Intn(4))
		bks, err := BestKnown(net, task)
		if errors.Is(err, core.ErrNoFeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := net.Validate(bks.Embedding); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		msa, err := core.Solve(net, task, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bks.FinalCost > msa.FinalCost+1e-9 {
			t.Fatalf("trial %d: BestKnown %v worse than MSA %v", trial, bks.FinalCost, msa.FinalCost)
		}
		if rsa, err := baseline.RSA(net, task, rng, core.Options{}); err == nil {
			if bks.FinalCost > rsa.FinalCost+1e-9 {
				t.Fatalf("trial %d: BestKnown %v worse than RSA %v", trial, bks.FinalCost, rsa.FinalCost)
			}
		}
		if !bks.ExactSteiner {
			t.Errorf("trial %d: expected exact Steiner (|D|=%d small)", trial, len(task.Destinations))
		}
	}
}

func TestBestKnownFallsBackOnManyDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	net, task := randomInstance(rng, 30, 2, 20) // |D| > DW limit
	bks, err := BestKnown(net, task)
	if errors.Is(err, core.ErrNoFeasible) {
		t.Skip("instance infeasible")
	}
	if err != nil {
		t.Fatal(err)
	}
	if bks.ExactSteiner {
		t.Error("expected KMB fallback for 20 destinations")
	}
	if err := net.Validate(bks.Embedding); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestBruteForceMatchesHandComputedOptimum(t *testing.T) {
	// Line 0-1-2-3 with unit edges; chain (f0); setup: node1=5, node2=0.1.
	// Hosting on 2 wins: cost = 2 (to node 2) + 0.1 + 1 = 3.1.
	g := graph.New(4)
	for v := 1; v < 4; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f0", Demand: 1}})
	if err := net.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetServer(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSetupCost(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSetupCost(0, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	_, cost, err := BruteForce(net, task, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-3.1) > 1e-9 {
		t.Errorf("cost = %v, want 3.1", cost)
	}
}
