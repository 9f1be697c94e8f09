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
