package mod

import (
	"math/rand"
	"testing"

	"sftree/internal/nfv"
)

// getTable is a Cache.Get that also builds the candidate table, the way
// a solve reads a scaffold.
func getTable(t *testing.T, c *Cache, net *nfv.Network, source int, chain nfv.SFC) *Network {
	t.Helper()
	m, err := c.Get(net, source, chain)
	if err != nil {
		t.Fatal(err)
	}
	m.Candidates(tableOf(m))
	return m
}

// freshBytes is what Build, SolveSFC and the candidate table produce
// for (net, source, chain) without a cache.
func freshBytes(t *testing.T, net *nfv.Network, source int, chain nfv.SFC) overlayBytes {
	t.Helper()
	m, err := Build(net, source, chain)
	if err != nil {
		t.Fatal(err)
	}
	m.Candidates(tableOf(m))
	defer m.Release()
	return bytesOf(m)
}

// TestScaffoldRevisit: a network that leaves a deployment and comes
// back to it finds the scaffold it reused there, and that scaffold —
// setup block, chain search and candidate rows — is what a fresh
// Build reads at the deployment.
func TestScaffoldRevisit(t *testing.T) {
	net := buildNet(rand.New(rand.NewSource(11)), 24, 16, 5)
	chain := nfv.SFC{3, 0, 4}
	cache := NewCache()
	atA := getTable(t, cache, net, 2, chain)
	getTable(t, cache, net, 2, chain).Release() // served twice: kept
	atA.Release()
	wantA := freshBytes(t, net, 2, chain)

	if err := net.Deploy(4, 7); err != nil { // B: the chain's last VNF on 7
		t.Fatal(err)
	}
	atB := getTable(t, cache, net, 2, chain)
	if atB == atA || bytesOf(atB).equal(wantA) {
		t.Fatal("deployment B was served deployment A's scaffold")
	}
	atB.Release()
	if err := net.Undeploy(4, 7); err != nil { // back to A
		t.Fatal(err)
	}

	hits, misses := CacheStats()
	again := getTable(t, cache, net, 2, chain)
	defer again.Release()
	if h, m := CacheStats(); h != hits+1 || m != misses {
		t.Fatalf("the revisit of A counted %d hits and %d misses, want one hit", h-hits, m-misses)
	}
	if again != atA {
		t.Fatal("the revisit of A built a new scaffold instead of serving the one kept there")
	}
	if got := bytesOf(again); !got.equal(wantA) || !got.equal(freshBytes(t, net, 2, chain)) {
		t.Fatal("the scaffold served at the revisit differs from a fresh build at A")
	}
}

// TestScaffoldBitsCheck: an entry under the key the network computes
// whose stored deployment is not the network's — what a fingerprint
// collision would leave — is not served: the Get counts a miss,
// replaces the entry and returns a fresh build.
func TestScaffoldBitsCheck(t *testing.T) {
	net := buildNet(rand.New(rand.NewSource(12)), 20, 12, 4)
	chain := nfv.SFC{1, 2}
	other := net.Clone()
	if err := other.Deploy(2, 5); err != nil {
		t.Fatal(err)
	}
	alien, err := Build(other, 3, chain)
	if err != nil {
		t.Fatal(err)
	}
	alien.SolveSFC()
	cache := NewCache()
	key := cacheKey{source: 3, sig: ChainSig(chain), id: net.IncarnationID(),
		gen: net.Graph().Generation(), print: net.DeployFingerprint()}
	planted := &cacheEntry{bits: other.DeploymentBits(), reused: true, m: alien}
	planted.once.Do(func() {})
	alien.entry = planted
	planted.refs.Store(2) // the cache's and this test's
	cache.entries[key] = planted
	cache.id, cache.gen, cache.print = key.id, key.gen, key.print

	hits, misses := CacheStats()
	got, err := cache.Get(net, 3, chain)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got == alien {
		t.Fatal("an entry built at another deployment was served under an equal key")
	}
	if h, m := CacheStats(); h != hits || m != misses+1 {
		t.Errorf("the mismatch counted %d hits and %d misses, want one miss", h-hits, m-misses)
	}
	if cache.entries[key] == planted || planted.refs.Load() != 1 {
		t.Error("the mismatched entry was not replaced and released by the cache")
	}
	if !net.SameDeployment(cache.entries[key].bits) {
		t.Error("the replacing entry does not record the network's deployment")
	}
	got.SolveSFC()
	got.Candidates(tableOf(got))
	if !bytesOf(got).equal(freshBytes(t, net, 3, chain)) {
		t.Error("the replacing scaffold differs from a fresh build")
	}
	alien.Release()
}

// TestScaffoldRetention: when the deployment moves, entries no second
// Get has served are dropped and reused ones kept, whatever deployment
// they were built at; another graph generation or another incarnation
// empties the cache.
func TestScaffoldRetention(t *testing.T) {
	net := buildNet(rand.New(rand.NewSource(13)), 20, 12, 4)
	cache := NewCache()
	get := func(n *nfv.Network, source int, chain nfv.SFC) {
		m, err := cache.Get(n, source, chain)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	held := func() map[int]bool {
		sources := make(map[int]bool)
		for k := range cache.entries {
			sources[k.source] = true
		}
		return sources
	}
	reused, once := nfv.SFC{0, 1}, nfv.SFC{2, 3}
	get(net, 1, reused)
	get(net, 1, reused)
	get(net, 2, once)
	if err := net.Deploy(3, 4); err != nil {
		t.Fatal(err)
	}
	get(net, 3, once)
	if s := held(); len(s) != 2 || !s[1] || !s[3] {
		t.Fatalf("after the move the cache holds sources %v, want the reused 1 and the new 3", s)
	}
	if err := net.Undeploy(3, 4); err != nil {
		t.Fatal(err)
	}
	hits, misses := CacheStats()
	get(net, 1, reused)
	get(net, 2, once)
	if h, m := CacheStats(); h != hits+1 || m != misses+1 {
		t.Errorf("back at the first deployment: %d hits and %d misses, want the reused entry to hit and the dropped one to miss", h-hits, m-misses)
	}
	if s := held(); len(s) != 2 || !s[1] || !s[2] {
		t.Fatalf("the cache holds sources %v, want 1 and 2", s)
	}

	// Another graph generation: every entry goes, the reused one too.
	get(net, 1, reused)
	net.Graph().MustAddEdge(0, 19, 50)
	get(net, 5, once)
	if s := held(); len(s) != 1 || !s[5] {
		t.Fatalf("after a generation change the cache holds sources %v, want only 5", s)
	}
	// Another incarnation at the same deployment and generation number.
	get(net, 5, once)
	twin := buildNet(rand.New(rand.NewSource(13)), 20, 12, 4)
	twin.Graph().MustAddEdge(0, 19, 50)
	if twin.Graph().Generation() != net.Graph().Generation() || !twin.SameDeployment(net.DeploymentBits()) {
		t.Fatal("the twin network differs from net in more than its incarnation")
	}
	get(twin, 6, once)
	if s := held(); len(s) != 1 || !s[6] {
		t.Fatalf("after an incarnation change the cache holds sources %v, want only 6", s)
	}
	cache.Purge()
	if len(cache.entries) != 0 || cache.state != nil {
		t.Fatal("Purge left entries or a deployment copy behind")
	}
}

// TestScaffoldConfigChange: a setup-cost or server change on a network
// the cache has served, at an unchanged deployment and graph, is not
// answered with the scaffold built from the old configuration. The
// reconfigured network is a new incarnation, so the next Get builds
// what a fresh Build reads; a clone taken before the change keeps the
// old configuration and is served the old scaffold's content.
func TestScaffoldConfigChange(t *testing.T) {
	net := buildNet(rand.New(rand.NewSource(14)), 16, 8, 3)
	// Node 15 becomes a switch again in a copy whose server list lacks
	// it, so SetServer(15, …) below changes the overlay's columns.
	g := net.Graph()
	sw := nfv.NewNetwork(g, net.Catalog())
	for v := 0; v < 15; v++ {
		if err := sw.SetServer(v, 100); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			if err := sw.SetSetupCost(f, v, net.RawSetupCost(f, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	chain := nfv.SFC{1, 2}
	for _, tc := range []struct {
		name   string
		net    *nfv.Network
		change func(*nfv.Network) error
	}{
		{"setup cost", net, func(n *nfv.Network) error { return n.SetSetupCost(1, 5, 1000) }},
		{"server", sw, func(n *nfv.Network) error { return n.SetServer(15, 100) }},
	} {
		cache := NewCache()
		before := getTable(t, cache, tc.net, 0, chain)
		getTable(t, cache, tc.net, 0, chain).Release() // served twice: kept
		old := tc.net.Clone()
		if err := tc.change(tc.net); err != nil {
			t.Fatal(err)
		}
		after := getTable(t, cache, tc.net, 0, chain)
		if after == before || !bytesOf(after).equal(freshBytes(t, tc.net, 0, chain)) {
			t.Errorf("%s: the cache served a scaffold built from the old configuration", tc.name)
		}
		if bytesOf(after).equal(bytesOf(before)) {
			t.Errorf("%s: the change did not move the overlay; the test shows nothing", tc.name)
		}
		after.Release()
		again := getTable(t, cache, old, 0, chain)
		if !bytesOf(again).equal(bytesOf(before)) {
			t.Errorf("%s: a clone taken before the change was served another configuration's scaffold", tc.name)
		}
		again.Release()
		before.Release()
	}
}

// TestScaffoldHitAllocs: a hit allocates nothing — the chain signature
// is looked up from the stack — while a miss still stores its own key.
func TestScaffoldHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates")
	}
	net := buildNet(rand.New(rand.NewSource(15)), 20, 10, 4)
	chain := nfv.SFC{3, 0, 2}
	cache := NewCache()
	getTable(t, cache, net, 4, chain).Release()
	hits, _ := CacheStats()
	allocs := testing.AllocsPerRun(200, func() {
		m, err := cache.Get(net, 4, chain)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if h, _ := CacheStats(); h-hits < 200 {
		t.Fatalf("%d of the measured Gets hit, want all", h-hits)
	}
	if allocs != 0 {
		t.Errorf("a scaffold hit allocates %v objects, want 0", allocs)
	}
	if got := cache.entries[cacheKey{source: 4, sig: ChainSig(chain), id: net.IncarnationID(), gen: net.Graph().Generation(), print: net.DeployFingerprint()}]; got == nil {
		t.Error("the entry is not stored under the chain's signature")
	}
}
