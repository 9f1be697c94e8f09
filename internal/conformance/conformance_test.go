package conformance

import (
	"math"
	"math/rand"
	"testing"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// solvedInstance generates a random paper-style instance and solves it
// with the two-stage algorithm, returning a known-valid embedding.
func solvedInstance(t *testing.T, seed int64, nodes, k, nd int) (*nfv.Network, *nfv.Embedding) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := netgen.Generate(netgen.PaperConfig(nodes, 2), rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	task, err := netgen.GenerateTask(net, rng, nd, k)
	if err != nil {
		t.Fatalf("task: %v", err)
	}
	res, err := core.Solve(net, task, core.Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return net, res.Embedding
}

func TestCheckAcceptsSolverOutput(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		net, emb := solvedInstance(t, seed, 16, 2, 3)
		if err := Check(net, emb); err != nil {
			t.Fatalf("seed %d: valid embedding rejected: %v", seed, err)
		}
	}
}

func TestRecountMatchesCostOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		net, emb := solvedInstance(t, seed, 14, 2, 3)
		bd, err := Recount(net, emb)
		if err != nil {
			t.Fatalf("seed %d: recount: %v", seed, err)
		}
		oracle := net.Cost(emb)
		if !CostsAgree(bd.Total, oracle.Total) {
			t.Fatalf("seed %d: recount total %v != oracle %v", seed, bd.Total, oracle.Total)
		}
		if !CostsAgree(bd.Setup, oracle.Setup) || !CostsAgree(bd.Link, oracle.Link) {
			t.Fatalf("seed %d: breakdown (%v,%v) != oracle (%v,%v)",
				seed, bd.Setup, bd.Link, oracle.Setup, oracle.Link)
		}
	}
}

// mutation corrupts a valid embedding in one specific way; both the
// conformance validator and nfv.Validate must agree on the verdict for
// every one of them.
type mutation struct {
	name  string
	apply func(e *nfv.Embedding, net *nfv.Network) bool // false: not applicable
}

func mutations() []mutation {
	return []mutation{
		{"drop-walk", func(e *nfv.Embedding, _ *nfv.Network) bool {
			if len(e.Walks) == 0 {
				return false
			}
			e.Walks = e.Walks[:len(e.Walks)-1]
			return true
		}},
		{"wrong-start", func(e *nfv.Embedding, net *nfv.Network) bool {
			p := e.Walks[0][0].Path
			e.Walks[0][0].Path = append([]int{(e.Task.Source + 1) % net.NumNodes()}, p[1:]...)
			return true
		}},
		{"non-edge-hop", func(e *nfv.Embedding, net *nfv.Network) bool {
			// Splice an unreachable detour into the first segment.
			for u := 0; u < net.NumNodes(); u++ {
				if _, ok := net.Graph().HasEdge(e.Task.Source, u); !ok && u != e.Task.Source {
					seg := &e.Walks[0][0]
					seg.Path = append([]int{e.Task.Source, u}, seg.Path...)
					return true
				}
			}
			return false
		}},
		{"truncate-walk", func(e *nfv.Embedding, _ *nfv.Network) bool {
			if len(e.Walks[0]) < 2 {
				return false
			}
			e.Walks[0] = e.Walks[0][:len(e.Walks[0])-1]
			return true
		}},
		{"bad-level-label", func(e *nfv.Embedding, _ *nfv.Network) bool {
			e.Walks[0][0].Level = 99
			return true
		}},
		{"drop-instances", func(e *nfv.Embedding, _ *nfv.Network) bool {
			if len(e.NewInstances) == 0 {
				return false
			}
			e.NewInstances = nil
			return true
		}},
		{"duplicate-instance", func(e *nfv.Embedding, _ *nfv.Network) bool {
			if len(e.NewInstances) == 0 {
				return false
			}
			e.NewInstances = append(e.NewInstances, e.NewInstances[0])
			return true
		}},
		{"instance-on-switch", func(e *nfv.Embedding, net *nfv.Network) bool {
			for v := 0; v < net.NumNodes(); v++ {
				if !net.IsServer(v) {
					e.NewInstances = append(e.NewInstances, nfv.Instance{VNF: e.Task.Chain[0], Node: v, Level: 1})
					return true
				}
			}
			return false
		}},
		{"shadow-deployed", func(e *nfv.Embedding, net *nfv.Network) bool {
			for f := 0; f < net.CatalogSize(); f++ {
				for v := 0; v < net.NumNodes(); v++ {
					if net.IsDeployed(f, v) {
						e.NewInstances = append(e.NewInstances, nfv.Instance{VNF: f, Node: v, Level: 1})
						return true
					}
				}
			}
			return false
		}},
		{"unknown-vnf-instance", func(e *nfv.Embedding, net *nfv.Network) bool {
			e.NewInstances = append(e.NewInstances, nfv.Instance{VNF: net.CatalogSize() + 3, Node: 0, Level: 1})
			return true
		}},
		{"wrong-terminus", func(e *nfv.Embedding, net *nfv.Network) bool {
			w := e.Walks[0]
			last := &w[len(w)-1]
			end := last.Path[len(last.Path)-1]
			for v := 0; v < net.NumNodes(); v++ {
				if _, ok := net.Graph().HasEdge(end, v); ok && v != e.Task.Destinations[0] {
					last.Path = append(last.Path, v)
					return true
				}
			}
			return false
		}},
		{"empty-segment", func(e *nfv.Embedding, _ *nfv.Network) bool {
			e.Walks[0][0].Path = nil
			return true
		}},
	}
}

// TestCheckMatchesValidateOnMutations is the equivalence battery: the
// shared validator and nfv.Validate must return the same verdict on
// every corrupted variant of a valid embedding.
func TestCheckMatchesValidateOnMutations(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		net, emb := solvedInstance(t, seed, 14, 2, 3)
		for _, mut := range mutations() {
			c := emb.Clone()
			if !mut.apply(c, net) {
				continue
			}
			gotOracle := net.Validate(c) == nil
			gotShared := Check(net, c) == nil
			if gotOracle != gotShared {
				t.Errorf("seed %d mutation %q: nfv.Validate ok=%v, conformance.Check ok=%v",
					seed, mut.name, gotOracle, gotShared)
			}
		}
	}
}

func TestCheckRejectsCapacityOverflow(t *testing.T) {
	// Two-node line, one server with room for exactly one instance.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	catalog := []nfv.VNF{{ID: 0, Name: "a", Demand: 1}, {ID: 1, Name: "b", Demand: 1}}
	net := nfv.NewNetwork(g, catalog)
	if err := net.SetServer(0, 1); err != nil {
		t.Fatal(err)
	}
	emb := &nfv.Embedding{
		Task: nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{0, 1}},
		NewInstances: []nfv.Instance{
			{VNF: 0, Node: 0, Level: 1},
			{VNF: 1, Node: 0, Level: 2},
		},
		Walks: []nfv.Walk{{
			{Level: 0, Path: []int{0}},
			{Level: 1, Path: []int{0}},
			{Level: 2, Path: []int{0, 1}},
		}},
	}
	if err := Check(net, emb); err == nil {
		t.Fatal("capacity overflow accepted")
	}
	if err := net.Validate(emb); err == nil {
		t.Fatal("oracle disagrees: nfv.Validate accepted the overflow")
	}
}

// TestCheckLiveMatchesValidateDeployed pins the live-embedding variant
// to the nfv.ValidateDeployed behavior it replaces in the repair and
// chaos paths.
func TestCheckLiveMatchesValidateDeployed(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		net, emb := solvedInstance(t, seed, 14, 2, 3)
		// Install the solution, as the dynamic manager would.
		live := net.Clone()
		for _, inst := range emb.NewInstances {
			if err := live.Deploy(inst.VNF, inst.Node); err != nil {
				t.Fatalf("seed %d: deploy: %v", seed, err)
			}
		}
		if err := live.ValidateDeployed(emb); err != nil {
			t.Fatalf("seed %d: oracle rejects live embedding: %v", seed, err)
		}
		if err := CheckLive(live, emb); err != nil {
			t.Fatalf("seed %d: CheckLive rejects live embedding: %v", seed, err)
		}
		// Corrupt it: both must reject.
		bad := emb.Clone()
		if len(bad.Walks[0]) > 1 {
			bad.Walks[0] = bad.Walks[0][:1]
		}
		if (live.ValidateDeployed(bad) == nil) != (CheckLive(live, bad) == nil) {
			t.Fatalf("seed %d: verdicts diverge on corrupted live embedding", seed)
		}
	}
}

func TestWalkBrokenDetectsDamage(t *testing.T) {
	net, emb := solvedInstance(t, 3, 14, 2, 3)
	live := net.Clone()
	for _, inst := range emb.NewInstances {
		if err := live.Deploy(inst.VNF, inst.Node); err != nil {
			t.Fatal(err)
		}
	}
	for di := range emb.Walks {
		if WalkBroken(live, emb, di) {
			t.Fatalf("destination %d reported broken on healthy network", di)
		}
	}
	// Kill the instance serving destination 0 at level 1.
	host := emb.Walks[0][1].Path[0]
	f := emb.Task.Chain[0]
	if err := live.Undeploy(f, host); err != nil {
		t.Fatal(err)
	}
	if !WalkBroken(live, emb, 0) {
		t.Fatal("lost instance not detected as breakage")
	}
}

func TestStageMonotoneOnHeuristicFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		net, err := netgen.Generate(netgen.PaperConfig(18, 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		task, err := netgen.GenerateTask(net, rng, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := core.Solve(net, task, core.Options{}); err == nil {
			if err := CheckStageMonotone(res.Embedding); err != nil {
				t.Fatalf("trial %d: two-stage violates Theorem 4 structure: %v\ncounts=%v",
					trial, err, StageCounts(res.Embedding))
			}
		}
		if res, err := baseline.SCA(net, task, core.Options{}); err == nil {
			if err := CheckStageMonotone(res.Embedding); err != nil {
				t.Fatalf("trial %d: SCA violates Theorem 4 structure: %v", trial, err)
			}
		}
		if res, err := baseline.RSA(net, task, rand.New(rand.NewSource(int64(trial))), core.Options{}); err == nil {
			if err := CheckStageMonotone(res.Embedding); err != nil {
				t.Fatalf("trial %d: RSA violates Theorem 4 structure: %v", trial, err)
			}
		}
	}
}

func TestCheckStageMonotoneRejects(t *testing.T) {
	// Hand-built 2-level embedding with 2 instances at level 1 and a
	// single shared instance at level 2.
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	catalog := []nfv.VNF{{ID: 0, Name: "a", Demand: 1}, {ID: 1, Name: "b", Demand: 1}}
	net := nfv.NewNetwork(g, catalog)
	for _, v := range []int{1, 2, 3} {
		if err := net.SetServer(v, 4); err != nil {
			t.Fatal(err)
		}
	}
	emb := &nfv.Embedding{
		Task: nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0, 1}},
		NewInstances: []nfv.Instance{
			{VNF: 0, Node: 1, Level: 1},
			{VNF: 0, Node: 2, Level: 1},
			{VNF: 1, Node: 3, Level: 2},
		},
		Walks: []nfv.Walk{
			{
				{Level: 0, Path: []int{0, 1}},
				{Level: 1, Path: []int{1, 3}},
				{Level: 2, Path: []int{3}},
			},
			{
				{Level: 0, Path: []int{0, 2}},
				{Level: 1, Path: []int{2, 3}},
				{Level: 2, Path: []int{3, 4}},
			},
		},
	}
	if err := Check(net, emb); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	counts := StageCounts(emb)
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("stage counts %v, want [2 1]", counts)
	}
	if err := CheckStageMonotone(emb); err == nil {
		t.Fatal("shrinking stage accepted")
	}
}

func TestCostsAgree(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 1 + 1e-9, true},
		{1, 1.1, false},
		{1e9, 1e9 * (1 + 1e-8), true},
		{1e9, 1e9 * 1.01, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), 5, false},
	}
	for _, c := range cases {
		if got := CostsAgree(c.a, c.b); got != c.want {
			t.Errorf("CostsAgree(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSortedInstanceKeysDedupes(t *testing.T) {
	e := &nfv.Embedding{NewInstances: []nfv.Instance{
		{VNF: 2, Node: 5}, {VNF: 1, Node: 9}, {VNF: 2, Node: 5}, {VNF: 1, Node: 3},
	}}
	keys := SortedInstanceKeys(e)
	want := [][2]int{{1, 3}, {1, 9}, {2, 5}}
	if len(keys) != len(want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys %v, want %v", keys, want)
		}
	}
}
