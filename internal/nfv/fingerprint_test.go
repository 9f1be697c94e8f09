package nfv_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"sftree/internal/faults"
	"sftree/internal/graph"
	"sftree/internal/nfv"
)

// fingerprintNet is a random connected network on which every node is
// a server with room for two of its k VNFs, so random deploys are
// refused for capacity as well as for duplicates.
func fingerprintNet(rng *rand.Rand) *nfv.Network {
	n, k := 4+rng.Intn(12), 1+rng.Intn(6)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			if _, ok := g.HasEdge(u, v); !ok {
				g.MustAddEdge(u, v, 1+rng.Float64()*9)
			}
		}
	}
	catalog := make([]nfv.VNF, k)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 1}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if err := net.SetServer(v, 2); err != nil {
			panic(err)
		}
	}
	return net
}

// churn applies steps random Deploy/Undeploy calls, refused ones (taken
// cells, full nodes, ids out of range) included, checking the
// fingerprint after each.
func churn(t *testing.T, net *nfv.Network, rng *rand.Rand, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		f, v := rng.Intn(net.CatalogSize()+2)-1, rng.Intn(net.NumNodes()+2)-1
		if rng.Intn(2) == 0 {
			_ = net.Deploy(f, v)
		} else {
			_ = net.Undeploy(f, v)
		}
		checkFingerprint(t, "churn", net)
	}
}

func checkFingerprint(t *testing.T, stage string, net *nfv.Network) {
	t.Helper()
	if got, want := net.DeployFingerprint(), nfv.FingerprintFromBits(net); got != want {
		t.Fatalf("%s: fingerprint %#x, recomputed from the deployment bits %#x", stage, got, want)
	}
}

// TestFingerprintTracksDeployment holds DeployFingerprint to its
// definition — the XOR of every deployed cell's mix — through random
// deploys and undeploys (refused calls included), clones mutated apart
// from their parent, an InstanceDoc round trip and fault
// materializations, and requires a network that leaves a deployment
// and comes back to it, by any path, to come back to its fingerprint.
func TestFingerprintTracksDeployment(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := fingerprintNet(rng)
		if net.DeployFingerprint() != 0 {
			t.Fatalf("seed %d: an empty deployment has fingerprint %#x", seed, net.DeployFingerprint())
		}
		churn(t, net, rng, 40)

		clone := net.Clone()
		checkFingerprint(t, "clone", clone)
		churn(t, clone, rng, 20)
		checkFingerprint(t, "parent after its clone moved", net)

		// A → B → A: deploy what fits, then undeploy it in another
		// order; and undeploy a few, then redeploy them in reverse.
		fp, bits := net.DeployFingerprint(), net.DeploymentBits()
		var added [][2]int
		for f := 0; f < net.CatalogSize(); f++ {
			for v := 0; v < net.NumNodes(); v++ {
				if rng.Intn(3) == 0 && net.Deploy(f, v) == nil {
					added = append(added, [2]int{f, v})
				}
			}
		}
		if len(added) > 0 && net.DeployFingerprint() == fp {
			t.Errorf("seed %d: %d deploys left the fingerprint unchanged", seed, len(added))
		}
		rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
		for _, c := range added {
			if err := net.Undeploy(c[0], c[1]); err != nil {
				t.Fatal(err)
			}
		}
		if net.DeployFingerprint() != fp || !net.SameDeployment(bits) {
			t.Fatalf("seed %d: back at deployment A after %d deploys and undeploys, fingerprint %#x, was %#x",
				seed, len(added), net.DeployFingerprint(), fp)
		}
		var removed [][2]int
		for f := 0; f < net.CatalogSize(); f++ {
			for v := 0; v < net.NumNodes(); v++ {
				if net.IsDeployed(f, v) && rng.Intn(2) == 0 && net.Undeploy(f, v) == nil {
					removed = append(removed, [2]int{f, v})
				}
			}
		}
		for i := len(removed) - 1; i >= 0; i-- {
			if err := net.Deploy(removed[i][0], removed[i][1]); err != nil {
				t.Fatal(err)
			}
		}
		if net.DeployFingerprint() != fp || !net.SameDeployment(bits) {
			t.Fatalf("seed %d: back at deployment A after %d undeploys and redeploys, fingerprint %#x, was %#x",
				seed, len(removed), net.DeployFingerprint(), fp)
		}

		blob, err := json.Marshal(nfv.InstanceDoc{Network: net})
		if err != nil {
			t.Fatal(err)
		}
		var doc nfv.InstanceDoc
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		checkFingerprint(t, "decoded", doc.Network)
		if doc.Network.DeployFingerprint() != fp {
			t.Fatalf("seed %d: an InstanceDoc round trip moved the fingerprint %#x → %#x", seed, fp, doc.Network.DeployFingerprint())
		}

		st := faults.NewState(net)
		pristine, err := st.Materialize(net)
		if err != nil {
			t.Fatal(err)
		}
		if pristine.DeployFingerprint() != fp {
			t.Fatalf("seed %d: a fault-free materialization moved the fingerprint %#x → %#x", seed, fp, pristine.DeployFingerprint())
		}
		edges := net.Graph().Edges()
		for i := 0; i < 3; i++ {
			ev := faults.Event{Kind: faults.NodeDown, Node: rng.Intn(net.NumNodes())}
			switch rng.Intn(3) {
			case 0:
				e := edges[rng.Intn(len(edges))]
				ev = faults.Event{Kind: faults.LinkDown, U: e.U, V: e.V}
			case 1:
				ev = faults.Event{Kind: faults.InstanceDown, VNF: rng.Intn(net.CatalogSize()), Node: rng.Intn(net.NumNodes())}
			}
			if err := st.Apply(ev); err != nil {
				t.Fatal(err)
			}
			degraded, err := st.Materialize(net)
			if err != nil {
				t.Fatal(err)
			}
			checkFingerprint(t, "materialized after "+ev.String(), degraded)
		}
	}
}

// TestSameState pins the one state test the dynamic manager commits
// under: a clone is in its parent's state until either side deploys,
// undeploys or is reconfigured, and is again once the deployment comes
// back, whatever path it took; a fault-free materialization of the
// same topology and deployment is another incarnation and never is.
func TestSameState(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := fingerprintNet(rng)
		churn(t, net, rng, 20)
		clone := net.Clone()
		if !net.SameState(clone) || !clone.SameState(net) {
			t.Fatalf("seed %d: a fresh clone is not in its parent's state", seed)
		}

		f, v := rng.Intn(net.CatalogSize()), rng.Intn(net.NumNodes())
		var err error
		if net.IsDeployed(f, v) {
			err = clone.Undeploy(f, v)
		} else {
			err = clone.Deploy(f, v)
		}
		if err == nil {
			if net.SameState(clone) {
				t.Fatalf("seed %d: toggling (%d, %d) on the clone left it in its parent's state", seed, f, v)
			}
			if net.IsDeployed(f, v) {
				err = clone.Deploy(f, v)
			} else {
				err = clone.Undeploy(f, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !net.SameState(clone) {
				t.Fatalf("seed %d: the clone came back to its parent's deployment but not to its state", seed)
			}
		}

		if err := clone.SetSetupCost(0, 0, clone.RawSetupCost(0, 0)); err != nil {
			t.Fatal(err)
		}
		if net.SameState(clone) {
			t.Fatalf("seed %d: a reconfigured clone is still in its parent's state", seed)
		}

		twin, err := faults.NewState(net).Materialize(net)
		if err != nil {
			t.Fatal(err)
		}
		if !twin.SameDeployment(net.DeploymentBits()) || net.SameState(twin) {
			t.Fatalf("seed %d: a materialization is the same deployment %v, the same state %v; want true, false",
				seed, twin.SameDeployment(net.DeploymentBits()), net.SameState(twin))
		}
	}
}
