package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// graphFromSeed deterministically builds a random connected graph.
func graphFromSeed(seed int64, maxNodes int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxNodes-1)
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 0.1+rng.Float64()*9.9)
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 0.1+rng.Float64()*9.9)
		}
	}
	return g
}

// Property: every Dijkstra distance is realized by the reconstructed
// path, and no single edge relaxation can improve any distance
// (optimality certificate).
func TestQuickDijkstraOptimalityCertificate(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 24)
		src := int(uint(seed) % uint(g.NumNodes()))
		tree := g.Dijkstra(src)
		for v := 0; v < g.NumNodes(); v++ {
			p := tree.PathTo(v)
			if p == nil {
				return false // connected by construction
			}
			if math.Abs(pathCost(g, p)-tree.Dist[v]) > 1e-9 {
				return false
			}
		}
		for _, e := range g.Edges() {
			if tree.Dist[e.V] > tree.Dist[e.U]+e.Cost+1e-9 {
				return false
			}
			if tree.Dist[e.U] > tree.Dist[e.V]+e.Cost+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the all-pairs metric is symmetric, satisfies the
// triangle inequality on random triples, and agrees with the
// Floyd–Warshall reference.
func TestQuickMetricAxioms(t *testing.T) {
	prop := func(seed int64, a, b, c uint8) bool {
		g := graphFromSeed(seed, 18)
		m, fw := g.APSP(), floydWarshall(g)
		n := g.NumNodes()
		i, j, k := int(a)%n, int(b)%n, int(c)%n
		if math.Abs(m.Dist[i][j]-m.Dist[j][i]) > 1e-9 || math.Abs(m.Dist[i][j]-fw.Dist[i][j]) > 1e-9 {
			return false
		}
		return m.Dist[i][j] <= m.Dist[i][k]+m.Dist[k][j]+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: a union-find's set count (its roots) decreases by exactly
// one per successful union, and two nodes share a representative
// exactly when the unions performed connect them.
func TestQuickUnionFindInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		var uf UnionFind
		uf.Reset(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		sets := n
		for i := 0; i < n; i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			merged := uf.Union(x, y)
			// Maintain reachability closure naively.
			if !adj[x][y] {
				if !merged {
					return false
				}
				sets--
				for a := 0; a < n; a++ {
					if adj[a][x] || adj[a][y] {
						for b := 0; b < n; b++ {
							if adj[b][x] || adj[b][y] {
								adj[a][b] = true
								adj[b][a] = true
							}
						}
					}
				}
			} else if merged {
				return false
			}
			roots := 0
			for v := 0; v < n; v++ {
				if uf.Find(v) == v {
					roots++
				}
			}
			if roots != sets {
				return false
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if (uf.Find(a) == uf.Find(b)) != adj[a][b] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
