package core

import (
	"math/rand"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/mod"
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

// opaBenchState builds a stage-one state on a mid-size instance so the
// stage-two benchmarks measure only the OPA machinery.
func opaBenchState(b *testing.B, n, k, nd int) (*nfv.Network, nfv.Task, *state) {
	b.Helper()
	net, task := benchInstance(b, n, k, nd)
	st, _, err := runMSA(net, task, Options{})
	if err != nil {
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
		if _, err := runOPAPass(c, opts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// deltaBenchMove picks one feasible last-level re-homing move on the
// benchmark instance; st must carry its ledger.
func deltaBenchMove(b *testing.B, net *nfv.Network, task nfv.Task, st *state) (connGroup, int) {
	b.Helper()
	metric := net.Metric()
	k := task.K()
	groups := st.initialConnectionGroups(false)
	if len(groups) == 0 {
		b.Skip("no independent connection groups on this instance")
	}
	grp := groups[0]
	cur := st.serve[grp.members[0]][k]
	for _, u := range net.Servers() {
		if u != cur && st.canHost(task.Chain[k-1], u) && metric.Dist[grp.node][u] != graph.Inf {
			return grp, u
		}
	}
	b.Skip("no feasible alternative host")
	return connGroup{}, -1
}

// BenchmarkStateDeltaCost measures one incremental move evaluation:
// apply against the ledger, read the new total, revert.
func BenchmarkStateDeltaCost(b *testing.B) {
	net, task, st := opaBenchState(b, 100, 5, 10)
	st.ensureLedger()
	grp, e := deltaBenchMove(b, net, task, st)
	metric := net.Metric()
	k := task.K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr := st.applyMoveInc(k, grp, e, metric)
		if _, err := st.totalCost(); err != nil {
			b.Fatal(err)
		}
		st.revert(jr)
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
