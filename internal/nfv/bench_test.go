package nfv

import (
	"math/rand"
	"testing"

	"sftree/internal/graph"
)

// benchEmbedding builds a sizeable valid embedding for oracle benches.
func benchEmbedding(b *testing.B) (*Network, *Embedding) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 200
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	k := 8
	catalog := make([]VNF, k)
	for f := range catalog {
		catalog[f] = VNF{ID: f, Name: "f", Demand: 1}
	}
	net := NewNetwork(g, catalog)
	for v := 0; v < n; v++ {
		if err := net.SetServer(v, float64(k)); err != nil {
			b.Fatal(err)
		}
	}
	metric := g.APSP()
	task := Task{Source: 0, Destinations: rng.Perm(n)[1:21], Chain: make(SFC, k)}
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
			key := [2]int{task.Chain[j-1], host}
			if !placed[key] {
				placed[key] = true
				e.NewInstances = append(e.NewInstances, Instance{VNF: key[0], Node: host, Level: j})
			}
			w = append(w, Segment{Level: j - 1, Path: metric.Path(prev, host)})
			prev = host
		}
		w = append(w, Segment{Level: k, Path: metric.Path(prev, d)})
		e.Walks = append(e.Walks, w)
	}
	return net, e
}

func BenchmarkCostOracle(b *testing.B) {
	net, e := benchEmbedding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Cost(e)
	}
}

func BenchmarkValidate(b *testing.B) {
	net, e := benchEmbedding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Validate(e); err != nil {
			b.Fatal(err)
		}
	}
}
