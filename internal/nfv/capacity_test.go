package nfv

import (
	"encoding/json"
	"math/rand"
	"testing"

	"sftree/internal/graph"
)

// recount is the definition UsedCapacity caches, computed from the
// exported deployment state alone: the demands of the instances on v,
// summed in catalog order.
func recount(net *Network, v int) float64 {
	var used float64
	for f, vnf := range net.Catalog() {
		if net.IsDeployed(f, v) {
			used += vnf.Demand
		}
	}
	return used
}

// usedVector reads UsedCapacity at every node.
func usedVector(net *Network) []float64 {
	out := make([]float64, net.NumNodes())
	for v := range out {
		out[v] = net.UsedCapacity(v)
	}
	return out
}

func checkUsed(t *testing.T, step string, net *Network) {
	t.Helper()
	for v := 0; v < net.NumNodes(); v++ {
		if got, want := net.UsedCapacity(v), recount(net, v); got != want {
			t.Fatalf("%s: UsedCapacity(%d) = %v, catalog-order recount %v", step, v, got, want)
		}
		if got, want := net.FreeCapacity(v), net.Capacity(v)-recount(net, v); got != want {
			t.Fatalf("%s: FreeCapacity(%d) = %v, want %v", step, v, got, want)
		}
	}
}

func sameVector(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: used[%d] = %v, want %v", what, v, got[v], want[v])
		}
	}
}

// TestUsedCapacityVectorProperty drives random Deploy / Undeploy /
// Clone / JSON round-trip sequences, failed calls included, and holds
// the cached vector to the recount after every step. Demands are
// decimal fractions, so a running total that added and subtracted
// them would leave the recount within a few mutations.
func TestUsedCapacityVectorProperty(t *testing.T) {
	demands := []float64{0.1, 0.2, 0.3, 0.7, 1.1, 0.15, 0.45}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64())
		}
		catalog := make([]VNF, 3+rng.Intn(len(demands)-2))
		for f := range catalog {
			catalog[f] = VNF{ID: f, Name: "f", Demand: demands[rng.Intn(len(demands))]}
		}
		net := NewNetwork(g, catalog)
		for v := 0; v < n; v++ {
			if v%4 == 3 {
				continue // a switch: Deploy must refuse it
			}
			if err := net.SetServer(v, 0.5+2*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		checkUsed(t, "fresh", net)

		// Clones taken along the way, each with the vector it had then.
		type frozen struct {
			net  *Network
			used []float64
		}
		var clones []frozen
		var fails, deploys, undeploys int
		for step := 0; step < 300; step++ {
			before := usedVector(net)
			f, v := rng.Intn(len(catalog)+1), rng.Intn(n) // f may be one past the catalog
			switch op := rng.Intn(10); {
			case op < 5:
				if err := net.Deploy(f, v); err != nil {
					fails++
					sameVector(t, "failed Deploy", usedVector(net), before)
				} else {
					deploys++
				}
			case op < 8:
				if err := net.Undeploy(f, v); err != nil {
					fails++
					sameVector(t, "failed Undeploy", usedVector(net), before)
				} else {
					undeploys++
				}
			case op < 9:
				c := net.Clone()
				checkUsed(t, "clone", c)
				if rng.Intn(2) == 0 {
					// Carry on with the clone; the parent is the frozen one.
					net, c = c, net
				}
				clones = append(clones, frozen{c, usedVector(c)})
			default:
				blob, err := json.Marshal(InstanceDoc{Network: net})
				if err != nil {
					t.Fatal(err)
				}
				var doc InstanceDoc
				if err := json.Unmarshal(blob, &doc); err != nil {
					t.Fatalf("seed %d step %d: round trip: %v", seed, step, err)
				}
				net = doc.Network
				sameVector(t, "round trip", usedVector(net), before)
			}
			checkUsed(t, "live", net)
			for _, c := range clones {
				sameVector(t, "frozen clone", usedVector(c.net), c.used)
			}
		}
		if fails == 0 || deploys == 0 || undeploys == 0 {
			t.Fatalf("seed %d: script exercised %d failures, %d deploys, %d undeploys; want all three",
				seed, fails, deploys, undeploys)
		}
	}
}
