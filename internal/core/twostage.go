package core

import (
	"fmt"
	"time"

	"sftree/internal/nfv"
)

// Result is the outcome of the two-stage algorithm.
type Result struct {
	// Embedding is the final, validated service function tree embedding.
	Embedding *nfv.Embedding
	// Stage1Cost is the traffic delivery cost after stage one (MSA).
	Stage1Cost float64
	// FinalCost is the traffic delivery cost after stage two (OPA);
	// always <= Stage1Cost.
	FinalCost float64
	// MovesAccepted counts the stage-two instance additions.
	MovesAccepted int
	// CandidatesTried counts the stage-one last-host candidates examined.
	CandidatesTried int
	// LastHost is the stage-one host of the final chain VNF.
	LastHost int
	// EarlyStop reports that Options.Ctx expired before the algorithm
	// ran to completion: the embedding is the best feasible solution
	// found by then (anytime semantics), valid but possibly short of
	// the unbounded result.
	EarlyStop bool
}

// Solve runs the full two-stage algorithm (MSA then OPA) and returns
// the resulting embedding, which is guaranteed to pass
// Network.Validate. The network is treated as read-only.
func Solve(net *nfv.Network, task nfv.Task, opts Options) (*Result, error) {
	sc := getScratch(net.NumNodes())
	res, err := solve(net, task, opts, sc)
	scratchPool.Put(sc)
	return res, err
}

func solve(net *nfv.Network, task nfv.Task, opts Options, sc *scratch) (*Result, error) {
	if opts.Observer != nil {
		// A warm metric reports zero build time: the closure is cached
		// (and generation-valid), so this solve pays nothing for APSP.
		if net.MetricCached() {
			opts.emit(Event{Kind: EventAPSPBuild, Duration: 0, Warm: true})
		} else {
			t0 := time.Now()
			net.Metric()
			opts.emit(Event{Kind: EventAPSPBuild, Duration: time.Since(t0)})
		}
	}
	st, res, err := stageOne(net, task, opts, sc)
	if err != nil {
		return nil, err
	}
	if err := stageTwo(st, res, opts); err != nil {
		return nil, err
	}
	if err := net.Validate(res.Embedding); err != nil {
		return nil, fmt.Errorf("core: produced invalid embedding (bug): %w", err)
	}
	return res, nil
}

// stageOne runs MSA and then materialises and prices its solution —
// the one embedding and the one pricing a solve needs unless stage two
// moves something. The result is complete for a solve that stops here.
func stageOne(net *nfv.Network, task nfv.Task, opts Options, sc *scratch) (*state, *Result, error) {
	t1 := opts.now()
	opts.emit(Event{Kind: EventStage1Start})
	st, stats, err := runMSA(net, task, opts, sc)
	if err != nil {
		return nil, nil, err
	}
	emb, err := st.embedding()
	if err != nil {
		return nil, nil, err
	}
	cost := net.Cost(emb).Total
	st.price = cost
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventStage1End, Cost: cost,
			Candidates: stats.CandidatesTried, Duration: time.Since(t1)})
	}
	return st, &Result{
		Embedding:       emb,
		Stage1Cost:      cost,
		FinalCost:       cost,
		CandidatesTried: stats.CandidatesTried,
		LastHost:        stats.LastHost,
		EarlyStop:       stats.EarlyStop,
	}, nil
}

// stageTwo runs OPA on st, whose embedding and price res carries, and
// updates res. Only an accepted move re-materialises, and st.price is
// already its cost: a rejected move is undone, which puts back the
// serve entries and the old tail slices, so a stage two that accepts
// nothing leaves the very state res.Embedding was built from.
func stageTwo(st *state, res *Result, opts Options) error {
	t2 := opts.now()
	opts.emit(Event{Kind: EventStage2Start, Cost: res.Stage1Cost})
	moves, stopped, err := runOPA(st, opts)
	if err != nil {
		return err
	}
	if moves > 0 {
		if res.Embedding, err = st.embedding(); err != nil {
			return err
		}
		res.FinalCost = st.price
	}
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventStage2End, Cost: res.FinalCost, Moves: moves, Duration: time.Since(t2)})
	}
	res.MovesAccepted = moves
	res.EarlyStop = res.EarlyStop || stopped
	return nil
}

// SolveStageOne runs only MSA (Algorithm 2), for ablations and as the
// starting point that baseline strategies replace.
func SolveStageOne(net *nfv.Network, task nfv.Task, opts Options) (*Result, error) {
	sc := getScratch(net.NumNodes())
	_, res, err := stageOne(net, task, opts, sc)
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	if err := net.Validate(res.Embedding); err != nil {
		return nil, fmt.Errorf("core: produced invalid embedding (bug): %w", err)
	}
	return res, nil
}

// OptimizeEmbedding runs stage two (OPA) on an externally produced
// feasible solution expressed as chain hosts plus per-destination
// tails. Baseline strategies (SCA, RSA) share this optimization phase,
// matching the paper's "the optimization procedure at the second stage
// is the same" setup.
func OptimizeEmbedding(net *nfv.Network, task nfv.Task, hosts []int, tails [][]int, opts Options) (*Result, error) {
	if err := task.Validate(net); err != nil {
		return nil, err
	}
	if len(hosts) != task.K() {
		return nil, fmt.Errorf("%w: %d hosts for chain of length %d", ErrNoFeasible, len(hosts), task.K())
	}
	if len(tails) != len(task.Destinations) {
		return nil, fmt.Errorf("%w: %d tails for %d destinations", ErrNoFeasible, len(tails), len(task.Destinations))
	}
	sc := getScratch(net.NumNodes())
	res, err := optimize(net, task, hosts, tails, opts, sc)
	scratchPool.Put(sc)
	return res, err
}

func optimize(net *nfv.Network, task nfv.Task, hosts []int, tails [][]int, opts Options, sc *scratch) (*Result, error) {
	st := newState(net, task, sc)
	for di := range task.Destinations {
		copy(st.row(di)[1:], hosts)
		st.tail[di] = append([]int(nil), tails[di]...)
	}
	emb, err := st.embedding()
	if err != nil {
		return nil, err
	}
	cost := net.Cost(emb).Total
	st.price = cost
	res := &Result{Embedding: emb, Stage1Cost: cost, FinalCost: cost, LastHost: hosts[len(hosts)-1]}
	if err := stageTwo(st, res, opts); err != nil {
		return nil, err
	}
	if err := net.Validate(res.Embedding); err != nil {
		return nil, fmt.Errorf("core: optimized embedding invalid: %w", err)
	}
	return res, nil
}
