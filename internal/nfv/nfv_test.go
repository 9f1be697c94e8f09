package nfv

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sftree/internal/graph"
)

// lineNetwork builds S=0 - 1 - 2 - 3=d with unit edges, all nodes
// servers with capacity 2, catalog of 3 VNFs, unit setup costs.
func lineNetwork(t *testing.T) *Network {
	t.Helper()
	g := graph.New(4)
	for v := 1; v < 4; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	catalog := []VNF{
		{ID: 0, Name: "f1", Demand: 1},
		{ID: 1, Name: "f2", Demand: 1},
		{ID: 2, Name: "f3", Demand: 1},
	}
	net := NewNetwork(g, catalog)
	for v := 0; v < 4; v++ {
		if err := net.SetServer(v, 2); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			if err := net.SetSetupCost(f, v, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return net
}

func TestSetServerValidation(t *testing.T) {
	net := lineNetwork(t)
	if err := net.SetServer(99, 1); !errors.Is(err, graph.ErrNodeOutOfRange) {
		t.Errorf("got %v", err)
	}
	if err := net.SetServer(0, -1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestSetSetupCostValidation(t *testing.T) {
	net := lineNetwork(t)
	for _, tc := range []struct {
		cost float64
		ok   bool
	}{
		{0, true},
		{2.5, true},
		{math.Inf(1), true}, // "cannot host here"
		{-1, false},
		{math.NaN(), false}, // every < in the chain search would be false
	} {
		if err := net.SetSetupCost(0, 1, tc.cost); (err == nil) != tc.ok {
			t.Errorf("SetSetupCost(%v) = %v, want accepted: %v", tc.cost, err, tc.ok)
		}
	}
	if got := net.RawSetupCost(0, 1); !math.IsInf(got, 1) {
		t.Errorf("setup cost after the rejected writes = %v, want the last accepted one, +Inf", got)
	}
}

func TestDeployAndSetupCost(t *testing.T) {
	net := lineNetwork(t)
	if got := net.SetupCost(0, 1); got != 1 {
		t.Errorf("setup before deploy = %v, want 1", got)
	}
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := net.SetupCost(0, 1); got != 0 {
		t.Errorf("setup after deploy = %v, want 0 (reuse is free)", got)
	}
	if got := net.RawSetupCost(0, 1); got != 1 {
		t.Errorf("raw setup = %v, want 1", got)
	}
	if err := net.Deploy(0, 1); !errors.Is(err, ErrAlreadyDeployed) {
		t.Errorf("double deploy: got %v", err)
	}
	if !net.IsDeployed(0, 1) || net.IsDeployed(1, 1) {
		t.Error("deployment state wrong")
	}
}

func TestDeployCapacity(t *testing.T) {
	net := lineNetwork(t) // capacity 2 each
	if err := net.Deploy(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.Deploy(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.Deploy(2, 2); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("over-capacity deploy: got %v", err)
	}
	if got := net.UsedCapacity(2); got != 2 {
		t.Errorf("UsedCapacity = %v, want 2", got)
	}
	if got := net.FreeCapacity(2); got != 0 {
		t.Errorf("FreeCapacity = %v, want 0", got)
	}
}

func TestUndeploy(t *testing.T) {
	net := lineNetwork(t)
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Undeploy(0, 1); err != nil {
		t.Fatal(err)
	}
	if net.IsDeployed(0, 1) {
		t.Error("still deployed after Undeploy")
	}
	if got := net.SetupCost(0, 1); got != 1 {
		t.Errorf("setup after undeploy = %v, want raw cost 1", got)
	}
	if got := net.FreeCapacity(1); got != 2 {
		t.Errorf("capacity not freed: %v", got)
	}
	if err := net.Undeploy(0, 1); err == nil {
		t.Error("double undeploy accepted")
	}
	if err := net.Undeploy(99, 1); !errors.Is(err, ErrUnknownVNF) {
		t.Errorf("unknown vnf: %v", err)
	}
	if err := net.Undeploy(0, -1); err == nil {
		t.Error("bad node accepted")
	}
}

func TestDeployOnSwitch(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	net := NewNetwork(g, DefaultCatalog())
	if err := net.Deploy(0, 1); !errors.Is(err, ErrNotServer) {
		t.Errorf("deploy on switch: got %v", err)
	}
	if err := net.Deploy(77, 0); !errors.Is(err, ErrUnknownVNF) {
		t.Errorf("unknown vnf: got %v", err)
	}
}

func TestTaskValidate(t *testing.T) {
	net := lineNetwork(t)
	good := Task{Source: 0, Destinations: []int{3}, Chain: SFC{0, 1}}
	if err := good.Validate(net); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	cases := []struct {
		name string
		task Task
	}{
		{"bad source", Task{Source: -1, Destinations: []int{3}, Chain: SFC{0}}},
		{"no destinations", Task{Source: 0, Chain: SFC{0}}},
		{"dup destination", Task{Source: 0, Destinations: []int{3, 3}, Chain: SFC{0}}},
		{"dest out of range", Task{Source: 0, Destinations: []int{9}, Chain: SFC{0}}},
		{"empty chain", Task{Source: 0, Destinations: []int{3}}},
		{"unknown vnf", Task{Source: 0, Destinations: []int{3}, Chain: SFC{9}}},
		{"repeated vnf", Task{Source: 0, Destinations: []int{3}, Chain: SFC{0, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.task.Validate(net); !errors.Is(err, ErrInvalidTask) {
				t.Errorf("got %v, want ErrInvalidTask", err)
			}
		})
	}
}

// chainEmbedding builds a simple valid embedding on lineNetwork:
// f1 on node 1, f2 on node 2, destination 3.
func chainEmbedding() *Embedding {
	task := Task{Source: 0, Destinations: []int{3}, Chain: SFC{0, 1}}
	return &Embedding{
		Task: task,
		NewInstances: []Instance{
			{VNF: 0, Node: 1, Level: 1},
			{VNF: 1, Node: 2, Level: 2},
		},
		Walks: []Walk{{
			{Level: 0, Path: []int{0, 1}},
			{Level: 1, Path: []int{1, 2}},
			{Level: 2, Path: []int{2, 3}},
		}},
	}
}

func TestValidateAcceptsGoodEmbedding(t *testing.T) {
	net := lineNetwork(t)
	if err := net.Validate(chainEmbedding()); err != nil {
		t.Fatalf("valid embedding rejected: %v", err)
	}
}

func TestCostBasicChain(t *testing.T) {
	net := lineNetwork(t)
	bd := net.Cost(chainEmbedding())
	if bd.Setup != 2 {
		t.Errorf("setup = %v, want 2", bd.Setup)
	}
	if bd.Link != 3 {
		t.Errorf("link = %v, want 3", bd.Link)
	}
	if bd.Total != 5 {
		t.Errorf("total = %v, want 5", bd.Total)
	}
}

func TestCostDeduplicatesSharedStageEdges(t *testing.T) {
	// Two destinations sharing the whole chain: link cost counted once
	// per stage-edge, so adding a second destination served at node 3
	// through the same edges adds nothing for shared segments.
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := NewNetwork(g, []VNF{{ID: 0, Name: "f1", Demand: 1}})
	for v := 0; v < 5; v++ {
		if err := net.SetServer(v, 5); err != nil {
			t.Fatal(err)
		}
		if err := net.SetSetupCost(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	task := Task{Source: 0, Destinations: []int{3, 4}, Chain: SFC{0}}
	e := &Embedding{
		Task:         task,
		NewInstances: []Instance{{VNF: 0, Node: 1, Level: 1}},
		Walks: []Walk{
			{
				{Level: 0, Path: []int{0, 1}},
				{Level: 1, Path: []int{1, 2, 3}},
			},
			{
				{Level: 0, Path: []int{0, 1}},
				{Level: 1, Path: []int{1, 2, 3, 4}},
			},
		},
	}
	if err := net.Validate(e); err != nil {
		t.Fatal(err)
	}
	bd := net.Cost(e)
	// Stage 0: edge 0-1 once. Stage 1: edges 1-2,2-3,3-4 once each.
	if bd.Link != 4 {
		t.Errorf("link = %v, want 4 (dedup per stage)", bd.Link)
	}
	if bd.Setup != 1 {
		t.Errorf("setup = %v, want 1", bd.Setup)
	}
}

func TestCostCountsSameEdgeOncePerStage(t *testing.T) {
	// A walk that traverses the same edge at two different stages pays
	// twice (different flow content), matching the ILP's per-stage psi.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 5)
	net := NewNetwork(g, []VNF{{ID: 0, Name: "f1", Demand: 1}})
	if err := net.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSetupCost(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	task := Task{Source: 0, Destinations: []int{0}, Chain: SFC{0}}
	e := &Embedding{
		Task:         task,
		NewInstances: []Instance{{VNF: 0, Node: 1, Level: 1}},
		Walks: []Walk{{
			{Level: 0, Path: []int{0, 1}},
			{Level: 1, Path: []int{1, 0}},
		}},
	}
	// Destination is the source itself; allowed? Task validation only
	// requires destinations in range and distinct; S can be a receiver.
	if err := net.Validate(e); err != nil {
		t.Fatalf("round-trip embedding rejected: %v", err)
	}
	bd := net.Cost(e)
	if bd.Link != 10 {
		t.Errorf("link = %v, want 10 (edge paid per stage)", bd.Link)
	}
	if bd.Total != 13 {
		t.Errorf("total = %v, want 13", bd.Total)
	}
}

func TestCostReusedInstanceIsFree(t *testing.T) {
	net := lineNetwork(t)
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	e := chainEmbedding()
	// Drop the now-deployed f1 from NewInstances (it is reused).
	e.NewInstances = e.NewInstances[1:]
	if err := net.Validate(e); err != nil {
		t.Fatal(err)
	}
	bd := net.Cost(e)
	if bd.Setup != 1 {
		t.Errorf("setup = %v, want 1 (reused instance free)", bd.Setup)
	}
}

func TestValidateRejections(t *testing.T) {
	net := lineNetwork(t)
	mk := chainEmbedding

	t.Run("wrong walk count", func(t *testing.T) {
		e := mk()
		e.Walks = nil
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("wrong segment count", func(t *testing.T) {
		e := mk()
		e.Walks[0] = e.Walks[0][:2]
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("walk not starting at source", func(t *testing.T) {
		e := mk()
		e.Walks[0][0].Path = []int{1}
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("disconnected segment endpoints", func(t *testing.T) {
		e := mk()
		e.Walks[0][1].Path = []int{2, 3} // level-1 must start where level-0 ended (1)
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("non-edge hop", func(t *testing.T) {
		e := mk()
		e.Walks[0][0].Path = []int{0, 2} // 0-2 is not an edge
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("missing VNF at serving node", func(t *testing.T) {
		e := mk()
		e.NewInstances = e.NewInstances[1:] // drop f1@1 without deploying
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("walk ends at wrong node", func(t *testing.T) {
		e := mk()
		e.Walks[0][2].Path = []int{2}
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("instance on switch", func(t *testing.T) {
		g := graph.New(4)
		for v := 1; v < 4; v++ {
			g.MustAddEdge(v-1, v, 1)
		}
		sw := NewNetwork(g, DefaultCatalog())
		// only node 2 is a server
		if err := sw.SetServer(2, 5); err != nil {
			t.Fatal(err)
		}
		e := &Embedding{
			Task:         Task{Source: 0, Destinations: []int{3}, Chain: SFC{0}},
			NewInstances: []Instance{{VNF: 0, Node: 1, Level: 1}},
			Walks: []Walk{{
				{Level: 0, Path: []int{0, 1}},
				{Level: 1, Path: []int{1, 2, 3}},
			}},
		}
		if err := sw.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("capacity violation", func(t *testing.T) {
		e := mk()
		// Push both instances onto node 1 whose capacity is 2, then a
		// third synthetic one to overflow.
		net2 := lineNetwork(t)
		if err := net2.SetServer(1, 1); err != nil { // shrink capacity
			t.Fatal(err)
		}
		e.NewInstances = []Instance{
			{VNF: 0, Node: 1, Level: 1},
			{VNF: 1, Node: 1, Level: 2},
		}
		e.Walks[0] = Walk{
			{Level: 0, Path: []int{0, 1}},
			{Level: 1, Path: []int{1}},
			{Level: 2, Path: []int{1, 2, 3}},
		}
		if err := net2.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("duplicate new instance", func(t *testing.T) {
		e := mk()
		e.NewInstances = append(e.NewInstances, e.NewInstances[0])
		if err := net.Validate(e); !errors.Is(err, ErrInfeasible) {
			t.Errorf("got %v", err)
		}
	})
}

func TestEmbeddingCloneIsDeep(t *testing.T) {
	e := chainEmbedding()
	c := e.Clone()
	c.Walks[0][0].Path[0] = 99
	c.NewInstances[0].Node = 99
	if e.Walks[0][0].Path[0] == 99 || e.NewInstances[0].Node == 99 {
		t.Error("Clone shares state with original")
	}
}

func TestServingNode(t *testing.T) {
	e := chainEmbedding()
	if got := e.ServingNode(0, 1); got != 1 {
		t.Errorf("ServingNode(0,1) = %d, want 1", got)
	}
	if got := e.ServingNode(0, 2); got != 2 {
		t.Errorf("ServingNode(0,2) = %d, want 2", got)
	}
}

func TestDefaultCatalog(t *testing.T) {
	cat := DefaultCatalog()
	if len(cat) != 30 {
		t.Fatalf("catalog size = %d, want 30", len(cat))
	}
	seen := map[string]bool{}
	for i, f := range cat {
		if f.ID != i {
			t.Errorf("catalog[%d].ID = %d", i, f.ID)
		}
		if f.Demand != 1 {
			t.Errorf("catalog[%d].Demand = %v, want 1", i, f.Demand)
		}
		if seen[f.Name] {
			t.Errorf("duplicate VNF name %q", f.Name)
		}
		seen[f.Name] = true
	}
}

func TestNetworkClone(t *testing.T) {
	net := lineNetwork(t)
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	c := net.Clone()
	if err := c.Deploy(1, 1); err != nil {
		t.Fatal(err)
	}
	if net.IsDeployed(1, 1) {
		t.Error("clone deployment leaked into original")
	}
	if !c.IsDeployed(0, 1) {
		t.Error("clone lost original deployment")
	}
}

func TestMetricCached(t *testing.T) {
	net := lineNetwork(t)
	m1 := net.Metric()
	m2 := net.Metric()
	if m1 != m2 {
		t.Error("Metric not cached")
	}
	if m1.Dist[0][3] != 3 {
		t.Errorf("dist 0-3 = %v, want 3", m1.Dist[0][3])
	}
}

// capNet builds a 4-node line with servers on 1,2.
func capNet(t *testing.T) *Network {
	t.Helper()
	g := graph.New(4)
	for v := 1; v < 4; v++ {
		g.MustAddEdge(v-1, v, float64(v))
	}
	net := NewNetwork(g, []VNF{{ID: 0, Name: "f0", Demand: 1}})
	for _, v := range []int{1, 2} {
		if err := net.SetServer(v, 2); err != nil {
			t.Fatal(err)
		}
		if err := net.SetSetupCost(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// outAndBack builds an embedding whose flow crosses edge 1-2 twice
// (stage 0 out to the instance at 2, stage 1 back towards dest 1).
func outAndBack() *Embedding {
	return &Embedding{
		Task:         Task{Source: 0, Destinations: []int{1}, Chain: SFC{0}},
		NewInstances: []Instance{{VNF: 0, Node: 2, Level: 1}},
		Walks: []Walk{{
			{Level: 0, Path: []int{0, 1, 2}},
			{Level: 1, Path: []int{2, 1}},
		}},
	}
}

func TestEmbeddingString(t *testing.T) {
	e := outAndBack()
	s := e.String()
	for _, want := range []string{"source=0", "new instance: vnf=0 level=1 node=2", "dest 1:", "[L0 [0 1 2]]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCostOnNonEdgeIsInfinite(t *testing.T) {
	net := capNet(t)
	e := outAndBack()
	e.Walks[0][0].Path = []int{0, 2} // not an edge
	if bd := net.Cost(e); !math.IsInf(bd.Total, 1) {
		t.Errorf("cost over non-edge = %v, want +Inf", bd.Total)
	}
}
