package nfv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sftree/internal/graph"
)

// randomEmbedding builds a random feasible embedding on a random
// network: per destination, hosts are sampled per level and walks
// follow shortest paths.
func randomEmbedding(seed int64) (*Network, *Embedding) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(10)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 0.5+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 0.5+rng.Float64()*9)
		}
	}
	k := 1 + rng.Intn(3)
	catalog := make([]VNF, k)
	for f := range catalog {
		catalog[f] = VNF{ID: f, Name: "f", Demand: 1}
	}
	net := NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if err := net.SetServer(v, float64(k)); err != nil {
			panic(err)
		}
		for f := range catalog {
			if err := net.SetSetupCost(f, v, rng.Float64()*5); err != nil {
				panic(err)
			}
		}
	}
	metric := g.APSP()
	nd := 1 + rng.Intn(3)
	perm := rng.Perm(n)
	task := Task{Source: perm[0], Destinations: perm[1 : 1+nd], Chain: make(SFC, k)}
	for j := range task.Chain {
		task.Chain[j] = j
	}
	e := &Embedding{Task: task}
	placed := map[[2]int]bool{}
	for _, d := range task.Destinations {
		prev := task.Source
		w := make(Walk, 0, k+1)
		for j := 1; j <= k; j++ {
			host := rng.Intn(n)
			f := task.Chain[j-1]
			if !placed[[2]int{f, host}] {
				placed[[2]int{f, host}] = true
				e.NewInstances = append(e.NewInstances, Instance{VNF: f, Node: host, Level: j})
			}
			w = append(w, Segment{Level: j - 1, Path: metric.Path(prev, host)})
			prev = host
		}
		w = append(w, Segment{Level: k, Path: metric.Path(prev, d)})
		e.Walks = append(e.Walks, w)
	}
	return net, e
}

// Property: random shortest-path embeddings built to spec always pass
// validation, and their cost decomposes additively.
func TestQuickRandomEmbeddingsValidate(t *testing.T) {
	prop := func(seed int64) bool {
		net, e := randomEmbedding(seed)
		if err := net.Validate(e); err != nil {
			return false
		}
		bd := net.Cost(e)
		return math.Abs(bd.Total-(bd.Setup+bd.Link)) < 1e-9 && bd.Link >= 0 && bd.Setup >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: cost is invariant under destination reordering (walks
// permuted consistently) — multicast dedup cannot depend on order.
func TestQuickCostPermutationInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		net, e := randomEmbedding(seed)
		base := net.Cost(e).Total
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		perm := rng.Perm(len(e.Task.Destinations))
		shuffled := &Embedding{
			Task: Task{
				Source:       e.Task.Source,
				Destinations: make([]int, len(perm)),
				Chain:        e.Task.Chain,
			},
			NewInstances: e.NewInstances,
			Walks:        make([]Walk, len(perm)),
		}
		for i, p := range perm {
			shuffled.Task.Destinations[i] = e.Task.Destinations[p]
			shuffled.Walks[i] = e.Walks[p]
		}
		return math.Abs(net.Cost(shuffled).Total-base) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: duplicating a destination's walk (served identically)
// never increases cost — multicast stage-edge dedup absorbs it fully.
func TestQuickCostDedupIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		net, e := randomEmbedding(seed)
		base := net.Cost(e).Total
		dup := &Embedding{
			Task: Task{
				Source:       e.Task.Source,
				Destinations: append(append([]int{}, e.Task.Destinations...), e.Task.Destinations[0]),
				Chain:        e.Task.Chain,
			},
			NewInstances: e.NewInstances,
			Walks:        append(append([]Walk{}, e.Walks...), e.Walks[0]),
		}
		return math.Abs(net.Cost(dup).Total-base) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: deploying a chain VNF somewhere never increases the cost
// of an existing embedding (setup can only get cheaper), provided the
// instance list is adjusted to reuse it.
func TestQuickDeploymentNeverHurts(t *testing.T) {
	prop := func(seed int64) bool {
		net, e := randomEmbedding(seed)
		before := net.Cost(e).Total
		if len(e.NewInstances) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed ^ 0x7ea1))
		inst := e.NewInstances[rng.Intn(len(e.NewInstances))]
		net2 := net.Clone()
		if err := net2.Deploy(inst.VNF, inst.Node); err != nil {
			return true // capacity full; nothing to check
		}
		e2 := e.Clone()
		kept := e2.NewInstances[:0]
		for _, other := range e2.NewInstances {
			if other != inst {
				kept = append(kept, other)
			}
		}
		e2.NewInstances = kept
		if err := net2.Validate(e2); err != nil {
			return false
		}
		return net2.Cost(e2).Total <= before+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
