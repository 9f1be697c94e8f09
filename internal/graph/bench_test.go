package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n, extra int) *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	return g
}

func BenchmarkDijkstra250(b *testing.B) {
	g := benchGraph(250, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % 250)
	}
}

// apspShapes are the graphs the APSP benchmarks run on: two sparse
// ones and one whose density (m >= n²/8) once sent the metric to
// Floyd–Warshall instead of the Dijkstra rows.
var apspShapes = []struct {
	name     string
	n, extra int
}{
	{"sparse50", 50, 100},
	{"sparse250", 250, 500},
	{"dense200", 200, 6650}, // ≈6 800 edges
}

// metricSink keeps the benchmarked metrics live.
var metricSink *Metric

// BenchmarkAPSP times the metric the solver builds.
func BenchmarkAPSP(b *testing.B) {
	for _, sh := range apspShapes {
		g := benchGraph(sh.n, sh.extra)
		g.CSR()
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metricSink = g.APSP()
			}
		})
	}
}

// BenchmarkFloydWarshall times the test-file reference on the same
// shapes, so the comparison that retired the size and density
// cut-offs can be rerun.
func BenchmarkFloydWarshall(b *testing.B) {
	for _, sh := range apspShapes {
		g := benchGraph(sh.n, sh.extra)
		g.CSR()
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metricSink = floydWarshall(g)
			}
		})
	}
}
