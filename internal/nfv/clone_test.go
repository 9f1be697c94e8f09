package nfv

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sftree/internal/graph"
)

// cloneNet is a 5-node line 0-1-2-3-4 with servers 1..3 (capacity 2),
// two VNFs, distinct setup costs, coordinates and one pre-deployed
// instance of VNF 0 on node 2.
func cloneNet(t *testing.T) *Network {
	t.Helper()
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(v-1, v, float64(v))
	}
	net := NewNetwork(g, []VNF{{ID: 0, Name: "f0", Demand: 1}, {ID: 1, Name: "f1", Demand: 1}})
	for v := 1; v <= 3; v++ {
		if err := net.SetServer(v, 2); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 2; f++ {
			if err := net.SetSetupCost(f, v, float64(10*f+v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.SetCoords([]Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Deploy(0, 2); err != nil {
		t.Fatal(err)
	}
	return net
}

// netState is everything a Network answers about itself, for
// comparing two networks or one network before and after.
type netState struct {
	Servers             []int
	Rows                []int32
	Capacity, Used      []float64
	Setup, Raw          [][]float64
	Deployed            [][]bool
	Coords              []Point
	Epoch, Incarnation  uint64
	Catalog             []VNF
	FreeCapacityOfNode1 float64
}

func stateOf(net *Network) netState {
	n := net.NumNodes()
	s := netState{
		Servers:             net.Servers(),
		Rows:                append([]int32(nil), net.ServerRows()...),
		Coords:              net.Coords(),
		Epoch:               net.DeployEpoch(),
		Incarnation:         net.IncarnationID(),
		Catalog:             net.Catalog(),
		FreeCapacityOfNode1: net.FreeCapacity(1),
	}
	for v := 0; v < n; v++ {
		s.Capacity = append(s.Capacity, net.Capacity(v))
		s.Used = append(s.Used, net.UsedCapacity(v))
	}
	for f := 0; f < net.CatalogSize(); f++ {
		var setup, raw []float64
		var dep []bool
		for v := 0; v < n; v++ {
			setup = append(setup, net.SetupCost(f, v))
			raw = append(raw, net.RawSetupCost(f, v))
			dep = append(dep, net.IsDeployed(f, v))
		}
		s.Setup, s.Raw, s.Deployed = append(s.Setup, setup), append(s.Raw, raw), append(s.Deployed, dep)
	}
	return s
}

// cloneMutations are the writes a clone and its parent must keep to
// themselves, each with the answer that shows it landed.
var cloneMutations = []struct {
	name   string
	mutate func(*Network) error
	landed func(*Network) bool
}{
	{"SetServer", func(n *Network) error { return n.SetServer(4, 3) },
		func(n *Network) bool { return n.IsServer(4) && n.Capacity(4) == 3 && n.ServerRows()[4] == 3 }},
	{"SetServer capacity", func(n *Network) error { return n.SetServer(1, 5) },
		func(n *Network) bool { return n.Capacity(1) == 5 }},
	{"SetSetupCost", func(n *Network) error { return n.SetSetupCost(1, 3, 99) },
		func(n *Network) bool { return n.RawSetupCost(1, 3) == 99 }},
	{"SetCoords", func(n *Network) error { return n.SetCoords([]Point{{9, 9}, {9, 9}, {9, 9}, {9, 9}, {9, 9}}) },
		func(n *Network) bool { return n.Coords()[0] == Point{9, 9} }},
	{"Deploy", func(n *Network) error { return n.Deploy(1, 1) },
		func(n *Network) bool { return n.IsDeployed(1, 1) && n.UsedCapacity(1) == 1 }},
	{"Undeploy", func(n *Network) error { return n.Undeploy(0, 2) },
		func(n *Network) bool { return !n.IsDeployed(0, 2) && n.UsedCapacity(2) == 0 }},
}

// TestCloneIsolation: a clone behaves as a deep copy in both
// directions. Every setter and every deployment change on the clone
// leaves the parent as it was, and the same on the parent leaves the
// clone, however the configuration tables are shared underneath; so
// does a clone of a clone. Run under -race, it also clones one
// snapshot from 8 goroutines at once, each then reading and writing its
// own clone.
func TestCloneIsolation(t *testing.T) {
	for _, mu := range cloneMutations {
		for _, side := range []string{"clone", "parent", "grandchild"} {
			t.Run(mu.name+"/"+side, func(t *testing.T) {
				parent := cloneNet(t)
				if side == "grandchild" {
					parent = parent.Clone()
				}
				child := parent.Clone()
				target, other := child, parent
				if side == "parent" {
					target, other = parent, child
				}
				before := stateOf(other)
				if err := mu.mutate(target); err != nil {
					t.Fatal(err)
				}
				if !mu.landed(target) {
					t.Fatalf("%s did not land on the %s", mu.name, side)
				}
				if after := stateOf(other); !reflect.DeepEqual(after, before) {
					t.Errorf("%s on the %s changed the other network:\nbefore %+v\nafter  %+v", mu.name, side, before, after)
				}
			})
		}
	}

	t.Run("concurrent clones", func(t *testing.T) {
		parent := cloneNet(t)
		snap := parent.Clone()
		want := stateOf(snap)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := snap.Clone()
				if len(c.ServerList()) != 3 || c.ServerRows()[2] != 1 || c.RawSetupCost(1, 3) != 13 {
					errs <- fmt.Errorf("clone %d reads %v %v %v", i, c.ServerList(), c.ServerRows(), c.RawSetupCost(1, 3))
					return
				}
				for _, mu := range cloneMutations {
					if err := mu.mutate(c); err != nil {
						errs <- fmt.Errorf("clone %d: %s: %v", i, mu.name, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if got := stateOf(snap); !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent clones changed the snapshot:\nwant %+v\ngot  %+v", want, got)
		}
	})
}

// TestCloneAllocs: a clone copies the deployment state and nothing
// else, in at most 4 allocations, with the catalog at the evaluation's
// 30 VNFs and at twice that.
func TestCloneAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, vnfs := range []int{30, 60} {
		g := graph.New(100)
		for v := 1; v < 100; v++ {
			g.MustAddEdge(v-1, v, 1)
		}
		catalog := make([]VNF, vnfs)
		for f := range catalog {
			catalog[f] = VNF{ID: f, Demand: 1}
		}
		net := NewNetwork(g, catalog)
		for v := 0; v < 100; v++ {
			if err := net.SetServer(v, 5); err != nil {
				t.Fatal(err)
			}
		}
		net.Metric()
		net.ServerList()
		allocs := testing.AllocsPerRun(100, func() { net.Clone() })
		t.Logf("%d VNFs x 100 nodes: %.0f allocations per clone", vnfs, allocs)
		if allocs > 4 {
			t.Errorf("%d VNFs: %.0f allocations per clone, budget 4", vnfs, allocs)
		}
	}
}
