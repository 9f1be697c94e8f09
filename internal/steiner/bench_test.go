package steiner

import (
	"fmt"
	"math/rand"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
)

func benchSetup(b *testing.B, n, extra, terms int) (*graph.Graph, *graph.Metric, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, n, extra)
	m := g.APSP()
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

// BenchmarkLowerBound prices the tree bound of burst_shared's shape —
// 10 destinations on a 100-node paper network — and of solve_paper's
// largest, 20 on 200 nodes, over 128 destination sets taken in turn,
// on a warm metric. BenchmarkLowerBoundRescan is the same with the
// rescan the event list replaced.
func BenchmarkLowerBound(b *testing.B) { benchLowerBound(b, (*Sweep).LowerBound) }

// boundSink keeps the benchmarked bound live.
var boundSink float64

func BenchmarkLowerBoundRescan(b *testing.B) { benchLowerBound(b, (*Sweep).lowerBoundRescan) }

func benchLowerBound(b *testing.B, bound func(*Sweep) float64) {
	for _, shape := range []struct{ nodes, dests int }{{100, 10}, {200, 20}} {
		b.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.dests), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net, err := netgen.Generate(netgen.PaperConfig(shape.nodes, 2), rng)
			if err != nil {
				b.Fatal(err)
			}
			g, m := net.Graph(), net.Metric()
			sets := make([][]int, 128)
			for i := range sets {
				sets[i] = rng.Perm(shape.nodes)[:shape.dests]
				s := NewSweep(g, m, sets[i])
				bound(s)
				s.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewSweep(g, m, sets[i%len(sets)])
				boundSink = bound(s)
				s.Close()
			}
		})
	}
}
