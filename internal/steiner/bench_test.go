package steiner

import (
	"math/rand"
	"testing"

	"sftree/internal/graph"
)

func benchSetup(b *testing.B, n, extra, terms int) (*graph.Graph, *graph.Metric, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, n, extra)
	m := g.FloydWarshall()
	return g, m, rng.Perm(n)[:terms]
}

func BenchmarkKMB100Nodes10Terminals(b *testing.B) {
	g, m, terms := benchSetup(b, 100, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMB(g, m, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMB250Nodes25Terminals(b *testing.B) {
	g, m, terms := benchSetup(b, 250, 500, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMB(g, m, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTakahashiMatsuyama100Nodes10Terminals(b *testing.B) {
	g, m, terms := benchSetup(b, 100, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TakahashiMatsuyama(g, m, terms[0], terms[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDreyfusWagner45Nodes10Terminals(b *testing.B) {
	g, m, terms := benchSetup(b, 45, 60, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DreyfusWagner(g, m, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDWTable45Nodes12Terminals(b *testing.B) {
	g, m, terms := benchSetup(b, 45, 60, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDWTable(g, m, terms); err != nil {
			b.Fatal(err)
		}
	}
}
