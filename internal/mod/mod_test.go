package mod

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/nfv"
)

// buildNet creates a random connected network where every node is a
// server with ample capacity and random setup costs.
func buildNet(rng *rand.Rand, n, extraEdges, catalogSize int) *nfv.Network {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	catalog := make([]nfv.VNF, catalogSize)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 1}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if err := net.SetServer(v, 100); err != nil {
			panic(err)
		}
		for f := range catalog {
			if err := net.SetSetupCost(f, v, rng.Float64()*5); err != nil {
				panic(err)
			}
		}
	}
	return net
}

// bruteForceSFC enumerates every host tuple and returns the cheapest
// chain cost ending at each node.
func bruteForceSFC(net *nfv.Network, source int, chain nfv.SFC) map[int]float64 {
	metric := net.Metric()
	servers := net.Servers()
	best := make(map[int]float64, len(servers))
	for _, v := range servers {
		best[v] = graph.Inf
	}
	k := len(chain)
	hosts := make([]int, k)
	var recur func(j int, prev int, acc float64)
	recur = func(j int, prev int, acc float64) {
		if j == k {
			last := hosts[k-1]
			if acc < best[last] {
				best[last] = acc
			}
			return
		}
		for _, v := range servers {
			hosts[j] = v
			step := metric.Dist[prev][v] + net.SetupCost(chain[j], v)
			recur(j+1, v, acc+step)
		}
	}
	recur(0, source, 0)
	return best
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := buildNet(rng, 5, 3, 4)
	if _, err := Build(net, 0, nil); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("empty chain: got %v", err)
	}
	if _, err := Build(net, 0, nfv.SFC{99}); !errors.Is(err, nfv.ErrUnknownVNF) {
		t.Errorf("unknown VNF: got %v", err)
	}
	if _, err := Build(net, -1, nfv.SFC{0}); !errors.Is(err, graph.ErrNodeOutOfRange) {
		t.Errorf("bad source: got %v", err)
	}

	// Network with no servers.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	bare := nfv.NewNetwork(g, nfv.DefaultCatalog())
	if _, err := Build(bare, 0, nfv.SFC{0}); !errors.Is(err, ErrNoServers) {
		t.Errorf("no servers: got %v", err)
	}
}

func TestBuildUnreachableSource(t *testing.T) {
	// Source in one component, all servers in another.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog())
	if err := net.SetServer(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := net.SetServer(3, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(net, 0, nfv.SFC{0}); !errors.Is(err, ErrSourceUnreachable) {
		t.Errorf("got %v, want ErrSourceUnreachable", err)
	}
}

func TestOverlayDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := buildNet(rng, 6, 4, 5)
	chain := nfv.SFC{0, 1, 2}
	m, err := Build(net, 0, chain)
	if err != nil {
		t.Fatal(err)
	}
	k, s := len(chain), 6
	if got, want := overlayNodes(m), 1+2*k*s; got != want {
		t.Errorf("overlay nodes = %d, want %d", got, want)
	}
	// Connected network: s source arcs + k*s virtual + (k-1)*s*s column arcs.
	if got, want := m.NumOverlayArcs(), s+k*s+(k-1)*s*s; got != want {
		t.Errorf("overlay arcs = %d, want %d", got, want)
	}
}

func TestSolveSFCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(5) // 3..7 nodes
		k := 1 + rng.Intn(3) // chain length 1..3
		net := buildNet(rng, n, n, k+2)
		chain := make(nfv.SFC, k)
		for j := range chain {
			chain[j] = j
		}
		source := rng.Intn(n)
		m, err := Build(net, source, chain)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol := m.SolveSFC()
		want := bruteForceSFC(net, source, chain)
		for _, v := range net.Servers() {
			if math.Abs(sol.CostTo(v)-want[v]) > 1e-9 {
				t.Fatalf("trial %d: CostTo(%d) = %v, brute force %v",
					trial, v, sol.CostTo(v), want[v])
			}
		}
	}
}

func TestHostsToConsistentWithCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		k := 1 + rng.Intn(4)
		net := buildNet(rng, n, n, k+1)
		chain := make(nfv.SFC, k)
		for j := range chain {
			chain[j] = j
		}
		m, err := Build(net, 0, chain)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol := m.SolveSFC()
		for _, v := range net.Servers() {
			hosts := sol.HostsTo(v)
			if hosts == nil {
				t.Fatalf("trial %d: no hosts to %d", trial, v)
			}
			if len(hosts) != k {
				t.Fatalf("trial %d: %d hosts, want %d", trial, len(hosts), k)
			}
			if hosts[k-1] != v {
				t.Fatalf("trial %d: last host %d, want %d", trial, hosts[k-1], v)
			}
			if got, want := m.ChainCost(hosts), sol.CostTo(v); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: ChainCost(%v) = %v, CostTo = %v", trial, hosts, got, want)
			}
		}
	}
}

func TestDeployedVNFMakesChainCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := buildNet(rng, 5, 4, 3)
	chain := nfv.SFC{0, 1}
	m1, err := Build(net, 0, chain)
	if err != nil {
		t.Fatal(err)
	}
	_, before := bestHost(m1.SolveSFC())

	// Deploy chain VNFs everywhere: setup becomes zero, so the best
	// chain cost can only drop (to pure link cost).
	for _, v := range net.Servers() {
		for _, f := range chain {
			if err := net.Deploy(f, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	m2, err := Build(net, 0, chain)
	if err != nil {
		t.Fatal(err)
	}
	best, after := bestHost(m2.SolveSFC())
	if after > before+1e-9 {
		t.Errorf("deploying VNFs increased best cost: %v -> %v", before, after)
	}
	if best < 0 {
		t.Error("no best host found")
	}
	// With all setup free and source itself a server, hosting the whole
	// chain on the source costs zero.
	if got := m2.SolveSFC().CostTo(0); got != 0 {
		t.Errorf("all-deployed chain at source costs %v, want 0", got)
	}
}

// TestDeployedVNFCategories pins the paper's §IV-D handling: chain
// VNFs already deployed get zero-cost virtual arcs, while deployed
// VNFs *outside* the chain do not occupy overlay columns — they only
// shrink the node's free capacity.
func TestDeployedVNFCategories(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	catalog := []nfv.VNF{
		{ID: 0, Name: "in-chain", Demand: 1},
		{ID: 1, Name: "off-chain", Demand: 1},
	}
	net := nfv.NewNetwork(g, catalog)
	if err := net.SetServer(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSetupCost(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	// Category 2: an off-chain VNF consumes capacity but must not add
	// overlay structure.
	if err := net.Deploy(1, 1); err != nil {
		t.Fatal(err)
	}
	chain := nfv.SFC{0}
	m, err := Build(net, 0, chain)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := overlayNodes(m), 1+2*1*1; got != want {
		t.Errorf("overlay nodes = %d, want %d (off-chain VNF must not add columns)", got, want)
	}
	// Not deployed in chain: the virtual arc carries the setup cost 7.
	if got := m.SolveSFC().CostTo(1); got != 1+7 {
		t.Errorf("cost = %v, want 8", got)
	}
	// Category 1: deploying the chain VNF zeroes the virtual arc.
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	m2, err := Build(net, 0, chain)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.SolveSFC().CostTo(1); got != 1 {
		t.Errorf("cost with deployed chain VNF = %v, want 1", got)
	}
	// And the node is now full: capacity 2, both instances deployed.
	if net.FreeCapacity(1) != 0 {
		t.Errorf("free capacity = %v, want 0", net.FreeCapacity(1))
	}
}

// AppendHostsTo is HostsTo into the caller's buffer: the same hosts
// after whatever the buffer held, and the buffer back untouched for a
// node HostsTo answers nil for.
func TestHostsToAppendMatches(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(4, 5, 1) // a second component
	net := nfv.NewNetwork(g, nfv.DefaultCatalog()[:3])
	for _, v := range []int{1, 3, 5} {
		if err := net.SetServer(v, 4); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			if err := net.SetSetupCost(f, v, float64(1+(f*v)%4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := Build(net, 0, nfv.SFC{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sol := m.SolveSFC()
	prefix := []int{41, 42}
	for v := -1; v <= net.NumNodes(); v++ {
		hosts := sol.HostsTo(v)
		got := sol.AppendHostsTo(slices.Clone(prefix), v)
		if !slices.Equal(got, append(slices.Clone(prefix), hosts...)) {
			t.Errorf("AppendHostsTo(%v, %d) = %v, HostsTo = %v", prefix, v, got, hosts)
		}
		if reachable := v == 1 || v == 3; (hosts != nil) != reachable {
			t.Errorf("HostsTo(%d) = %v, reachable server: %v", v, hosts, reachable)
		}
	}
	// Reusing one buffer across candidates leaves no residue.
	buf := sol.AppendHostsTo(nil, 3)
	if buf = sol.AppendHostsTo(buf[:0], 1); !slices.Equal(buf, sol.HostsTo(1)) {
		t.Errorf("reused buffer holds %v, HostsTo(1) = %v", buf, sol.HostsTo(1))
	}
}

func TestChainCostLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := buildNet(rng, 4, 2, 3)
	m, err := Build(net, 0, nfv.SFC{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.ChainCost([]int{1}); !math.IsInf(c, 1) {
		t.Errorf("short host list cost = %v, want Inf", c)
	}
}

func TestCostToNonServer(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog())
	if err := net.SetServer(1, 5); err != nil {
		t.Fatal(err)
	}
	m, err := Build(net, 0, nfv.SFC{0})
	if err != nil {
		t.Fatal(err)
	}
	sol := m.SolveSFC()
	if c := sol.CostTo(2); !math.IsInf(c, 1) {
		t.Errorf("CostTo(non-server) = %v, want Inf", c)
	}
	if h := sol.HostsTo(2); h != nil {
		t.Errorf("HostsTo(non-server) = %v, want nil", h)
	}
}

// An overlay keeps its solved SFC: SolveSFC runs the chain search once
// per Network, however many callers ask and from however many goroutines,
// so a scaffold served twice from a Cache hands out one solution. A
// fresh Build solves afresh and agrees element for element; a
// deployment moves the cache to a new version, overlay and solution.
func TestSolveSFCOncePerOverlay(t *testing.T) {
	net := buildNet(rand.New(rand.NewSource(61)), 14, 10, 4)
	chain := nfv.SFC{2, 0, 3}
	cache := NewCache()
	first, err := cache.Get(net, 5, chain)
	if err != nil {
		t.Fatal(err)
	}
	sols := make([]*SFCSolution, 8)
	var wg sync.WaitGroup
	for i := range sols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := cache.Get(net, 5, chain)
			if err != nil {
				t.Error(err)
				return
			}
			sols[i] = m.SolveSFC()
		}()
	}
	wg.Wait()
	want := first.SolveSFC()
	for i, sol := range sols {
		if sol != want {
			t.Fatalf("caller %d got its own solution: the cached overlay solved more than once", i)
		}
	}

	fresh, err := Build(net, 5, chain)
	if err != nil {
		t.Fatal(err)
	}
	again := fresh.SolveSFC()
	if again == want {
		t.Fatal("a fresh Build shares the cached overlay's solution")
	}
	if !slices.Equal(again.out, want.out) || !slices.Equal(again.pred, want.pred) {
		t.Error("fresh and cached solutions differ")
	}

	if err := net.Deploy(3, 9); err != nil { // the chain's last VNF
		t.Fatal(err)
	}
	moved, err := cache.Get(net, 5, chain)
	if err != nil {
		t.Fatal(err)
	}
	if moved == first || moved.SolveSFC() == want {
		t.Error("a deployment did not move the cache to a new overlay and solution")
	}
	if got, stale := moved.SolveSFC().CostTo(9), want.CostTo(9); got >= stale {
		t.Errorf("chain ending at the new instance costs %v, before the deployment %v", got, stale)
	}
}

// overlayNodes is the size of the paper's expanded overlay, the source
// included: two nodes (in, out) per chain level and candidate host.
func overlayNodes(m *Network) int { return 1 + 2*len(m.chain)*len(m.servers) }

// bestHost returns the candidate last-VNF host with the cheapest SFC
// embedding and its cost.
func bestHost(s *SFCSolution) (int, float64) {
	best, bestCost := -1, graph.Inf
	for _, v := range s.m.servers {
		if c := s.CostTo(v); c < bestCost {
			best, bestCost = v, c
		}
	}
	return best, bestCost
}
