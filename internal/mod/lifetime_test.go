package mod

import (
	"math/rand"
	"slices"
	"testing"

	"sftree/internal/nfv"
)

// overlayBytes is everything an overlay's recycled buffers hold.
type overlayBytes struct {
	chain  nfv.SFC
	setup  []float64
	out    []float64
	pred   []int32
	cands  []Candidate
	source int
}

func bytesOf(m *Network) overlayBytes {
	return overlayBytes{
		chain:  slices.Clone(m.chain),
		setup:  slices.Clone(m.setup),
		out:    slices.Clone(m.sol.out),
		pred:   slices.Clone(m.sol.pred),
		cands:  slices.Clone(m.cands),
		source: m.source,
	}
}

func (b overlayBytes) equal(o overlayBytes) bool {
	return slices.Equal(b.chain, o.chain) && slices.Equal(b.setup, o.setup) &&
		slices.Equal(b.out, o.out) && slices.Equal(b.pred, o.pred) &&
		slices.Equal(b.cands, o.cands) && b.source == o.source
}

// tableOf is a candidate table build that reads only the solution.
func tableOf(m *Network) func([]Candidate) []Candidate {
	return func(rows []Candidate) []Candidate {
		sol := m.SolveSFC()
		for _, v := range m.servers {
			rows = append(rows, Candidate{Cost: sol.CostTo(v), Node: int32(v), Last: int32(v)})
		}
		return rows
	}
}

// TestScaffoldLifetime: an overlay a caller still holds survives the
// cache dropping it. Held across a deployment change that drops it
// (no second Get served it) and across many later builds and releases —
// cached and direct, of every chain length, which is what would take
// its recycled buffers — it still reads the same bytes; so does a
// reused overlay the cache keeps across those changes and Purge then
// drops. Once released, the next build takes those buffers instead of
// allocating.
func TestScaffoldLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := buildNet(rng, 30, 20, 6)
	cache := NewCache()
	held, err := cache.Get(net, 3, nfv.SFC{4, 1, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	held.Candidates(tableOf(held))
	want := bytesOf(held)
	kept, err := cache.Get(net, 8, nfv.SFC{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	again, err := cache.Get(net, 8, nfv.SFC{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	again.Release()
	kept.Candidates(tableOf(kept))
	wantKept := bytesOf(kept)

	for round := 0; round < 40; round++ {
		// A deployment change moves the network to another deployment:
		// the next Get drops every entry no second Get served, the held
		// one included, and keeps the reused one.
		f, v := round%6, round%30
		change := net.Deploy
		if net.IsDeployed(f, v) {
			change = net.Undeploy
		}
		if err := change(f, v); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			chain := nfv.SFC(rng.Perm(6)[:1+rng.Intn(6)])
			m, err := cache.Get(net, rng.Intn(30), chain)
			if err != nil {
				t.Fatal(err)
			}
			m.Candidates(tableOf(m))
			m.Release()
			d, err := Build(net, rng.Intn(30), chain)
			if err != nil {
				t.Fatal(err)
			}
			d.Candidates(tableOf(d))
			d.Release()
		}
		if got := bytesOf(held); !got.equal(want) {
			t.Fatalf("round %d: the held overlay changed under its holder", round)
		}
		if n := held.entry.refs.Load(); n != 1 {
			t.Fatalf("round %d: the never-reused overlay has %d references, want only its holder's", round, n)
		}
		if n := kept.entry.refs.Load(); n != 2 {
			t.Fatalf("round %d: the reused overlay has %d references, want the cache's and its holder's", round, n)
		}
	}
	cache.Purge()
	if got := bytesOf(held); !got.equal(want) {
		t.Fatal("purging the cache changed the held overlay")
	}
	if got := bytesOf(kept); !got.equal(wantKept) {
		t.Fatal("the reused overlay changed under its holder")
	}

	kept.Release()
	held.Release()
	// A build after a release takes the released overlay and its
	// buffers: building, solving and releasing the same chain again
	// allocates nothing. sync.Pool keeps what it is handed until a
	// collection, except under the race detector, which drops a share
	// on purpose.
	allocs := testing.AllocsPerRun(20, func() {
		m, err := Build(net, 3, nfv.SFC{4, 1, 5, 0})
		if err != nil {
			t.Fatal(err)
		}
		m.SolveSFC()
		m.Release()
	})
	if allocs != 0 && !raceDetector {
		t.Errorf("a build after the last release allocated %v times: the overlay was not recycled", allocs)
	}
}
