package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// TestExpiredContextReturnsPromptly is the acceptance check for
// anytime solving: a context that is already expired at Solve time
// must still yield a valid embedding (the first feasible stage-one
// candidate) with the early-stop flag set, instead of running the full
// candidate sweep and stage two.
func TestExpiredContextReturnsPromptly(t *testing.T) {
	net, task := workedExample(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(net, task, Options{Ctx: ctx, MaxOPAPasses: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStop {
		t.Fatal("expired context did not set EarlyStop")
	}
	if res.CandidatesTried != 1 {
		t.Errorf("candidates tried = %d, want 1 (stop after the first feasible)", res.CandidatesTried)
	}
	if res.MovesAccepted != 0 {
		t.Errorf("moves accepted = %d, want 0 (stage two skipped)", res.MovesAccepted)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("early-stopped embedding invalid: %v", err)
	}
}

// TestNilContextMatchesUnbounded asserts the zero options are
// untouched by the deadline machinery.
func TestNilContextMatchesUnbounded(t *testing.T) {
	net, task := workedExample(t)
	bounded, err := Solve(net, task, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Solve(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.EarlyStop || free.EarlyStop {
		t.Fatal("unexpired contexts flagged EarlyStop")
	}
	if bounded.FinalCost != free.FinalCost || bounded.MovesAccepted != free.MovesAccepted {
		t.Fatalf("live context changed the result: %+v vs %+v", bounded, free)
	}
}

// generated60 is a 60-node paper-configuration network with an
// 8-destination, 4-VNF task: every server is a reachable candidate and
// the cheapest one is feasible.
func generated60(t *testing.T) (*nfv.Network, nfv.Task) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	net, err := netgen.Generate(netgen.PaperConfig(60, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return net, task
}

// TestDeadlineAnytimeOnGeneratedInstance runs a larger instance under
// a deadline that expires mid-solve and asserts the result is always a
// validated embedding no worse than stage one.
func TestDeadlineAnytimeOnGeneratedInstance(t *testing.T) {
	net, task := generated60(t)
	for _, timeout := range []time.Duration{time.Nanosecond, 500 * time.Microsecond, time.Second} {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res, err := Solve(net, task, Options{Ctx: ctx, MaxOPAPasses: 8})
		cancel()
		if err != nil {
			t.Fatalf("timeout %v: %v", timeout, err)
		}
		if err := net.Validate(res.Embedding); err != nil {
			t.Fatalf("timeout %v: invalid embedding: %v", timeout, err)
		}
		if res.FinalCost > res.Stage1Cost+1e-9 {
			t.Fatalf("timeout %v: final %v worse than stage one %v", timeout, res.FinalCost, res.Stage1Cost)
		}
	}
}

// TestStageOneEarlyStopFlag covers the SolveStageOne path.
func TestStageOneEarlyStopFlag(t *testing.T) {
	net, task := workedExample(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveStageOne(net, task, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStop {
		t.Fatal("expired context did not set EarlyStop on stage one")
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("embedding invalid: %v", err)
	}
}

// pollCtx is a deadline without a clock: the first budget polls of
// Done find it open, every later one finds it closed. The solver polls
// from one goroutine, so the counters need no lock.
type pollCtx struct {
	context.Context
	budget, open int
	expired      bool
	closed       chan struct{}
}

func newPollCtx(budget int) *pollCtx {
	c := &pollCtx{Context: context.Background(), budget: budget, closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.open == c.budget {
		c.expired = true
		return c.closed
	}
	c.open++
	return nil
}

func (c *pollCtx) Err() error {
	if c.expired {
		return context.DeadlineExceeded
	}
	return nil
}

// TestAnytimeSweepByPollCount pins the one loop's anytime rule. Every
// server of the generated instance is a reachable candidate and the
// first is feasible, so the sweep polls the deadline once before each
// later candidate: a deadline that survives b polls lets exactly 1+b
// candidates run, and EarlyStop says a poll found it expired — which
// happens only in front of a candidate left unevaluated.
func TestAnytimeSweepByPollCount(t *testing.T) {
	net, task := generated60(t)
	want, err := Solve(net, task, Options{MaxOPAPasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	all := len(net.ServerList())
	if want.CandidatesTried != all || want.EarlyStop {
		t.Fatalf("unbounded solve tried %d of %d candidates, early stop %v", want.CandidatesTried, all, want.EarlyStop)
	}
	for _, budget := range []int{0, 1, 4, all - 2, all - 1, all + 3, math.MaxInt} {
		ctx := newPollCtx(budget)
		one, err := SolveStageOne(net, task, Options{Ctx: ctx})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if one.CandidatesTried != 1+min(budget, all-1) || one.CandidatesTried != 1+ctx.open {
			t.Errorf("budget %d: tried %d candidates after %d open polls of %d", budget, one.CandidatesTried, ctx.open, all)
		}
		if one.EarlyStop != ctx.expired || one.EarlyStop != (one.CandidatesTried < all) {
			t.Errorf("budget %d: early stop %v, deadline seen expired %v, tried %d of %d",
				budget, one.EarlyStop, ctx.expired, one.CandidatesTried, all)
		}

		// The full solve spends what stage one leaves on stage two's
		// pass and level boundaries.
		ctx = newPollCtx(budget)
		res, err := Solve(net, task, Options{Ctx: ctx, MaxOPAPasses: 8})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := net.Validate(res.Embedding); err != nil {
			t.Fatalf("budget %d: invalid embedding: %v", budget, err)
		}
		if res.FinalCost > res.Stage1Cost {
			t.Errorf("budget %d: final %v worse than stage one %v", budget, res.FinalCost, res.Stage1Cost)
		}
		if res.CandidatesTried != one.CandidatesTried || res.Stage1Cost != one.Stage1Cost || res.EarlyStop != ctx.expired {
			t.Errorf("budget %d: solve %+v, stage one alone %+v, deadline seen expired %v", budget, res, one, ctx.expired)
		}
		if budget == math.MaxInt && !reflect.DeepEqual(res, want) {
			t.Errorf("a deadline that never expires changed the result:\n%+v\n%+v", res, want)
		}
	}
}

// TestExpiredDeadlineSweepsToFirstFeasible: a deadline that is gone
// before any candidate is feasible does not end the sweep. Servers A
// (room 2), B and Z (room 1 each) host the chain f1 (demand 1), f2
// (demand 2). The cheapest chain ends at A with both VNFs on A, where
// f2 no longer fits anywhere; the next ends at B, repaired to f1 on B
// and f2 on A; Z is never reached. With no room at B and Z nothing is
// feasible, and the failure is ErrNoFeasible, not the deadline.
func TestExpiredDeadlineSweepsToFirstFeasible(t *testing.T) {
	const src, a, b, z, dst = 0, 1, 2, 3, 4
	build := func(room float64) *nfv.Network {
		g := graph.New(5)
		g.MustAddEdge(src, a, 1)
		g.MustAddEdge(src, b, 5)
		g.MustAddEdge(a, b, 10)
		g.MustAddEdge(b, z, 20)
		g.MustAddEdge(a, dst, 1)
		net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f1", Demand: 1}, {ID: 1, Name: "f2", Demand: 2}})
		for v, room := range map[int]float64{a: 2, b: room, z: room} {
			if err := net.SetServer(v, room); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}
	task := nfv.Task{Source: src, Destinations: []int{dst}, Chain: nfv.SFC{0, 1}}

	net := build(1)
	res, err := SolveStageOne(net, task, Options{Ctx: newPollCtx(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesTried != 2 || !res.EarlyStop || res.LastHost != a {
		t.Errorf("tried %d candidates, early stop %v, last host %d; want 2, true, %d", res.CandidatesTried, res.EarlyStop, res.LastHost, a)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Errorf("invalid embedding: %v", err)
	}

	_, err = SolveStageOne(build(0), task, Options{Ctx: newPollCtx(0)})
	if !errors.Is(err, ErrNoFeasible) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("no feasible candidate under an expired deadline: %v, want ErrNoFeasible alone", err)
	}
}
