package core

import (
	"math/rand"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

func benchInstance(b *testing.B, n, k, nd int) (*nfv.Network, nfv.Task) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net, task := randomInstance(rng, n, k, nd)
	net.Metric() // exclude APSP warm-up from every loop
	return net, task
}

func BenchmarkMSAStageOne100(b *testing.B) {
	net, task := benchInstance(b, 100, 5, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveStageOne(net, task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoStage100(b *testing.B) {
	net, task := benchInstance(b, 100, 5, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(net, task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoStage250LongChain(b *testing.B) {
	net, task := benchInstance(b, 250, 5, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(net, task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// opaBenchState builds a priced stage-one state on a mid-size instance
// so the stage-two benchmarks measure only the OPA machinery.
func opaBenchState(b *testing.B, n, k, nd int) (*nfv.Network, nfv.Task, *state) {
	b.Helper()
	net, task := benchInstance(b, n, k, nd)
	st, _, err := runMSA(net, task, Options{}, getScratch(net.NumNodes()))
	if err != nil {
		b.Fatal(err)
	}
	if st.price, err = st.cost(); err != nil {
		b.Fatal(err)
	}
	return net, task, st
}

func BenchmarkOPAPass(b *testing.B) {
	_, _, st := opaBenchState(b, 100, 5, 10)
	opts := Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := st.clone()
		if _, _, err := runOPAPass(c, opts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// trialBenchMove picks one feasible last-level re-homing move on the
// benchmark instance.
func trialBenchMove(b *testing.B, net *nfv.Network, task nfv.Task, st *state) (connGroup, int) {
	b.Helper()
	metric := net.Metric()
	k := task.K()
	groups := st.initialConnectionGroups(false)
	if len(groups) == 0 {
		b.Skip("no independent connection groups on this instance")
	}
	grp := groups[0]
	cur := st.row(grp.members[0])[k]
	st.listPlaced()
	for _, u := range net.Servers() {
		if u != cur && st.canHost(task.Chain[k-1], u) && metric.Dist[grp.node][u] != graph.Inf {
			return grp, u
		}
	}
	b.Skip("no feasible alternative host")
	return connGroup{}, -1
}

// trialSink keeps BenchmarkTrialMove's pricing from being optimised
// away.
var trialSink float64

// BenchmarkTrialMove measures what stage two pays per proposed move:
// apply it, materialise and price the embedding, undo it.
func BenchmarkTrialMove(b *testing.B) {
	net, task, st := opaBenchState(b, 100, 5, 10)
	grp, e := trialBenchMove(b, net, task, st)
	metric := net.Metric()
	k := task.K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.applyMove(k, grp, e, metric)
		emb, err := st.embedding()
		if err != nil {
			b.Fatal(err)
		}
		trialSink = net.Cost(emb).Total
		st.undoMove()
	}
}

func BenchmarkMODBuildAndSolve200(b *testing.B) {
	net, task := benchInstance(b, 200, 5, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overlay, err := mod.Build(net, task.Source, task.Chain)
		if err != nil {
			b.Fatal(err)
		}
		overlay.SolveSFC()
	}
}

// benchTopologySeed is bench/'s topologySeed: the two pools below are
// the ones its solve_paper and burst_shared workloads solve (same
// generators, sizes and shapes), rebuilt here so B/op and allocs/op
// have a reader inside the module.
const benchTopologySeed = 20180702

func paperNetwork(tb testing.TB, nodes int) *nfv.Network {
	tb.Helper()
	net, err := netgen.Generate(netgen.PaperConfig(nodes, 2), rand.New(rand.NewSource(benchTopologySeed)))
	if err != nil {
		tb.Fatal(err)
	}
	net.Metric()
	return net
}

// paperPool is solve_paper's pool at seed 1: 96 tasks on 200 nodes,
// |D| in {5,10,20} x k in {3,5,7} taken cyclically.
func paperPool(tb testing.TB) (*nfv.Network, []nfv.Task) {
	tb.Helper()
	shapes := [][2]int{{5, 3}, {10, 5}, {20, 7}, {5, 5}, {10, 7}, {20, 3}, {5, 7}, {10, 3}, {20, 5}}
	net := paperNetwork(tb, 200)
	rng := rand.New(rand.NewSource(1))
	tasks := make([]nfv.Task, 96)
	for i := range tasks {
		s := shapes[i%len(shapes)]
		t, err := netgen.GenerateTask(net, rng, s[0], s[1])
		if err != nil {
			tb.Fatal(err)
		}
		tasks[i] = t
	}
	return net, tasks
}

// burstPool is four of burst_shared's bursts at seed 1: 128 tasks of
// 10 destinations on 100 nodes, one 5-VNF chain, four origins.
func burstPool(tb testing.TB) (*nfv.Network, []nfv.Task) {
	tb.Helper()
	net := paperNetwork(tb, 100)
	fixed := rand.New(rand.NewSource(benchTopologySeed + 1))
	proto, err := netgen.GenerateTask(net, fixed, 10, 5)
	if err != nil {
		tb.Fatal(err)
	}
	origins := fixed.Perm(net.NumNodes())[:4]
	rng := rand.New(rand.NewSource(1))
	tasks := make([]nfv.Task, 128)
	for i := range tasks {
		src := origins[rng.Intn(len(origins))]
		var dests []int
		for _, v := range rng.Perm(net.NumNodes()) {
			if v != src && len(dests) < 10 {
				dests = append(dests, v)
			}
		}
		tasks[i] = nfv.Task{Source: src, Destinations: dests, Chain: proto.Chain}
	}
	return net, tasks
}

func benchSolvePool(b *testing.B, net *nfv.Network, tasks []nfv.Task, opts Options) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(net, tasks[i%len(tasks)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePoolPaper(b *testing.B) {
	net, tasks := paperPool(b)
	benchSolvePool(b, net, tasks, Options{})
}

// BenchmarkSolvePoolBurst solves the burst pool without a scaffold
// cache: every solve builds its own overlay, chain solution and
// candidate table.
func BenchmarkSolvePoolBurst(b *testing.B) {
	net, tasks := burstPool(b)
	benchSolvePool(b, net, tasks, Options{})
}

// BenchmarkSolvePoolBurstScaffolded solves it the way burst_shared
// does, through one mod.Cache as dynamic.Manager holds it: the network
// version never moves here, so all but the first solve from each of the
// four origins find overlay, chain solution and table in place.
func BenchmarkSolvePoolBurstScaffolded(b *testing.B) {
	net, tasks := burstPool(b)
	benchSolvePool(b, net, tasks, Options{Scaffolds: mod.NewCache()})
}
