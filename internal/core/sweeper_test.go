package core

import (
	"math/rand"
	"slices"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// fractionalInstance is randomInstance with demands and capacities
// that are not exactly representable, so that restoring a free
// capacity by adding a demand back would drift by an ulp, and tight
// enough that repairs relocate VNFs and some candidates fit nowhere.
func fractionalInstance(rng *rand.Rand, n, k, nd int) (*nfv.Network, nfv.Task) {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	catalog := make([]nfv.VNF, k)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 0.15 * float64(1+rng.Intn(3))}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if rng.Intn(4) == 0 {
			continue // a switch
		}
		if err := net.SetServer(v, 0.1*float64(1+rng.Intn(9))); err != nil {
			panic(err)
		}
		for f := range catalog {
			if err := net.SetSetupCost(f, v, rng.Float64()*8); err != nil {
				panic(err)
			}
			if rng.Intn(6) == 0 && net.FreeCapacity(v) >= catalog[f].Demand {
				if err := net.Deploy(f, v); err != nil {
					panic(err)
				}
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

// A sweeper shares its free-capacity vector and its KMB sweep across
// candidates. Every evaluation must equal the one-shot formulation —
// RepairChainHosts on a fresh vector, steiner.KMB on a fresh workspace
// — whatever ran before it, and must hand the vector back exactly as
// the network reports it.
func TestSweeperMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	relocated, infeasible := 0, 0
	for trial := 0; trial < 60; trial++ {
		net, task := fractionalInstance(rng, 8+rng.Intn(20), 2+rng.Intn(4), 1+rng.Intn(5))
		overlay, err := mod.Build(net, task.Source, task.Chain)
		if err != nil {
			continue // no server reachable
		}
		sol, metric := overlay.SolveSFC(), net.Metric()
		sw := newSweeper(net, task, overlay, sol, metric, SteinerKMB, getScratch(net.NumNodes()))
		servers := net.ServerList()
		order := append(rng.Perm(len(servers)), rng.Perm(len(servers))...) // every candidate twice
		for _, i := range order {
			w := servers[i]
			got := sw.eval(w)
			for _, v := range servers {
				if sw.sc.free[v] != net.FreeCapacity(v) {
					t.Fatalf("trial %d: after candidate %d free[%d] = %v, network says %v", trial, w, v, sw.sc.free[v], net.FreeCapacity(v))
				}
			}
			chain := sol.HostsTo(w)
			if chain == nil {
				if got.tried || got.ok {
					t.Fatalf("trial %d: unreachable candidate %d evaluated: %+v", trial, w, got)
				}
				continue
			}
			hosts, ok := RepairChainHosts(net, task, chain)
			if !ok {
				infeasible++
				if !got.tried || got.ok {
					t.Fatalf("trial %d candidate %d: one-shot repair fails, sweeper says %+v", trial, w, got)
				}
				continue
			}
			if !slices.Equal(hosts, chain) {
				relocated++
			}
			last := hosts[len(hosts)-1]
			tree, err := steiner.KMB(net.Graph(), metric, append([]int{last}, task.Destinations...))
			if (err == nil) != got.ok {
				t.Fatalf("trial %d candidate %d: KMB error %v, sweeper ok %v", trial, w, err, got.ok)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(got.hosts, hosts) || got.total != overlay.ChainCost(hosts)+tree.Cost {
				t.Fatalf("trial %d candidate %d: hosts %v total %v, one-shot %v total %v",
					trial, w, got.hosts, got.total, hosts, overlay.ChainCost(hosts)+tree.Cost)
			}
			if again, err := sw.tree(last); err != nil || !slices.Equal(again.Edges, tree.Edges) || again.Cost != tree.Cost {
				t.Fatalf("trial %d candidate %d: tree %+v (%v), one-shot %+v", trial, w, again, err, tree)
			}
		}
		sw.close()
	}
	if relocated == 0 || infeasible == 0 {
		t.Errorf("instances too loose to test repair: %d relocations, %d infeasible candidates", relocated, infeasible)
	}
}

type eventLog []Event

func (l *eventLog) OnEvent(e Event) { *l = append(*l, e) }

// The KMB sweep's rare branch, end to end: the steiner package's
// nine-node diamond, padded past APSPAuto's Floyd-Warshall cutoff
// with a tail of switches so the metric is built by Dijkstra, whose
// tie-breaks route 0 -> 6 and 6 -> 8 around opposite sides of the
// diamond. The servers are node 0 and the far end of the tail, so
// every candidate's tree holds the cycle; the solve must say so in its
// sweep_end event and still return the valid embedding.
func TestSolveReportsGeneralBranchTrees(t *testing.T) {
	g := graph.New(70)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {6, 5}, {6, 4}, {3, 7}, {7, 8}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	g.MustAddEdge(0, 9, 1)
	for v := 10; v < 70; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f", Demand: 1}})
	for _, v := range []int{0, 69} {
		if err := net.SetServer(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	task := nfv.Task{Source: 1, Destinations: []int{6, 8}, Chain: nfv.SFC{0}}
	var log eventLog
	res, err := Solve(net, task, Options{Observer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Fatal(err)
	}
	if res.FinalCost != 1+3+2+2 { // 1 -> 0, then 0 -> 3, 3 -> 6 and 3 -> 8; setup is free
		t.Errorf("cost %v, want 8", res.FinalCost)
	}
	general := -1
	for _, e := range log {
		if e.Kind == EventSweepEnd {
			general = e.GeneralTrees
		}
	}
	// Both candidates priced, the winner built.
	if general != 3 {
		t.Errorf("sweep_end reports %d general-branch trees, want 3", general)
	}
}
