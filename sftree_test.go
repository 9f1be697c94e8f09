package sftree

import (
	"encoding/json"
	"math"
	"testing"
)

// buildExample constructs the DESIGN.md worked example through the
// public builder API.
func buildExample(t *testing.T) (*Network, Task) {
	t.Helper()
	catalog := []VNF{
		{ID: 0, Name: "f1", Demand: 1},
		{ID: 1, Name: "f2", Demand: 1},
	}
	net, err := NewNetworkBuilder(6, catalog).
		AddLink(0, 1, 1).
		AddLink(1, 2, 1).
		AddLink(2, 3, 1).
		AddLink(1, 4, 2).
		AddLink(4, 5, 1).
		AddLink(2, 4, 2.5).
		SetServer(1, 5).SetServer(2, 5).SetServer(4, 5).
		SetSetupCost(0, 1, 1).SetSetupCost(0, 2, 1).SetSetupCost(0, 4, 1).
		SetSetupCost(1, 1, 5).SetSetupCost(1, 2, 5).SetSetupCost(1, 4, 5).
		Deploy(0, 1).Deploy(1, 2).Deploy(1, 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, Task{Source: 0, Destinations: []int{3, 5}, Chain: SFC{0, 1}}
}

func TestPublicTwoStage(t *testing.T) {
	net, task := buildExample(t)
	res, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalCost-6.0) > 1e-9 {
		t.Errorf("final cost = %v, want 6.0", res.FinalCost)
	}
	rep, err := Replay(net, res.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.TotalCost-res.FinalCost) > 1e-9 {
		t.Errorf("replay %v != solver %v", rep.TotalCost, res.FinalCost)
	}
}

func TestPublicBaselinesAndOrdering(t *testing.T) {
	net, err := GenerateNetwork(DefaultGenConfig(60, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	task, err := GenerateTask(net, 6, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	msa, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sca, err := SolveSCA(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsa, err := SolveRSA(net, task, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bks, err := SolveBestKnown(net, task)
	if err != nil {
		t.Fatal(err)
	}
	if bks.FinalCost > msa.FinalCost+1e-9 {
		t.Errorf("best-known %v worse than MSA %v", bks.FinalCost, msa.FinalCost)
	}
	for name, res := range map[string]*Result{"msa": msa, "sca": sca, "rsa": rsa, "bks": bks} {
		if err := net.Validate(res.Embedding); err != nil {
			t.Errorf("%s: invalid embedding: %v", name, err)
		}
	}
}

func TestPublicILPOnTinyInstance(t *testing.T) {
	catalog := []VNF{{ID: 0, Name: "f0", Demand: 1}}
	net, err := NewNetworkBuilder(3, catalog).
		AddLink(0, 1, 1).
		AddLink(1, 2, 1).
		SetServer(1, 1).SetServer(2, 1).
		SetSetupCost(0, 1, 1).SetSetupCost(0, 2, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	task := Task{Source: 0, Destinations: []int{2}, Chain: SFC{0}}
	res, err := SolveILP(net, task, ILPOptions{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Errorf("tiny instance not proven optimal")
	}
	if math.Abs(res.Objective-3) > 1e-6 {
		t.Errorf("objective = %v, want 3", res.Objective)
	}
	heur, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if heur.FinalCost < res.Objective-1e-6 {
		t.Errorf("heuristic %v beat proven optimum %v", heur.FinalCost, res.Objective)
	}
}

func TestPublicPalmetto(t *testing.T) {
	net, names, err := PalmettoNetwork(DefaultGenConfig(45, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 45 || len(names) != 45 {
		t.Fatalf("shape: %d nodes, %d names", net.NumNodes(), len(names))
	}
	task, err := GenerateTask(net, 4, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestBuilderErrorsSurfaceAtBuild(t *testing.T) {
	if _, err := NewNetworkBuilder(2, nil).AddLink(0, 9, 1).Build(); err == nil {
		t.Error("bad link accepted")
	}
	if _, err := NewNetworkBuilder(2, nil).SetServer(5, 1).Build(); err == nil {
		t.Error("bad server accepted")
	}
	if _, err := NewNetworkBuilder(2, nil).AddLink(0, 1, 1).Deploy(0, 1).Build(); err == nil {
		t.Error("deploy on switch accepted")
	}
	if _, err := NewNetworkBuilder(-1, nil).Build(); err == nil {
		t.Error("negative node count accepted")
	}
}

func TestInstanceDocJSONThroughFacade(t *testing.T) {
	net, task := buildExample(t)
	blob, err := json.Marshal(InstanceDoc{Network: net, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	var doc InstanceDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	res, err := SolveTwoStage(doc.Network, doc.Task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalCost-6.0) > 1e-9 {
		t.Errorf("round-tripped instance solves to %v, want 6.0", res.FinalCost)
	}
}
