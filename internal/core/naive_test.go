package core

import (
	"sftree/internal/graph"
	"sftree/internal/nfv"
)

// This file is the clone-and-recost stage-two engine, kept as the
// reference runOPAPass is asserted against in equivalence_test.go. It
// never undoes a move or keeps a placed list: every trial runs on a
// clone, and every question is answered by re-deriving it from the
// serving assignment.

// solveNaive is Solve with the reference engine in stage two: stage
// one via runMSA, then runOPAPassNaive in runOPA's pass loop. It
// returns the accepted-move count and the final cost.
func solveNaive(net *nfv.Network, task nfv.Task, opts Options) (int, float64, error) {
	st, _, err := runMSA(net, task, opts, getScratch(net.NumNodes()))
	if err != nil {
		return 0, 0, err
	}
	total := 0
	for pass := 1; ; pass++ {
		moves, err := runOPAPassNaive(st, opts, pass)
		total += moves
		if err != nil {
			return total, 0, err
		}
		if moves == 0 {
			break
		}
	}
	cost, err := st.cost()
	return total, cost, err
}

// runOPAPassNaive is the clone-and-recost evaluation of Algorithm 3:
// every candidate move is applied to a cloned state and priced by a
// full embedding reconstruction. It emits the same move events as
// runOPAPass, so traces are comparable across engines.
func runOPAPassNaive(s *state, opts Options, passNo int) (int, error) {
	k := s.task.K()
	metric := s.net.Metric()
	curCost, err := s.cost()
	if err != nil {
		return 0, err
	}

	groups := s.initialConnectionGroups(opts.AggressiveOPA)
	moves := 0

	for j := k; j >= 1; j-- {
		if opts.ctxErr() != nil {
			return moves, nil // deadline: the current state is valid as-is
		}
		f := s.task.Chain[j-1]
		if _, err := s.net.VNF(f); err != nil {
			return moves, err
		}
		var nextConn []int // nodes hosting the instances added at level j
		for _, grp := range groups {
			if len(grp.members) == 0 {
				continue
			}
			cur := s.row(grp.members[0])[j]
			pred := s.row(grp.members[0])[j-1]
			curScore := metric.Dist[grp.node][cur]
			if grp.node == cur {
				continue // already colocated; nothing to gain
			}

			bestE, bestScore := -1, graph.Inf
			for _, u := range s.net.ServerList() {
				if u == cur {
					continue
				}
				if metric.Dist[grp.node][u] == graph.Inf || metric.Dist[u][pred] == graph.Inf {
					continue
				}
				if !s.canHostNaive(f, u) {
					continue
				}
				score := metric.Dist[grp.node][u] + metric.Dist[u][pred] + s.instanceSetupCostNaive(f, u)
				if score < bestScore {
					bestE, bestScore = u, score
				}
			}
			if bestE == -1 {
				continue
			}
			if !opts.AggressiveOPA && bestScore >= curScore-costEps {
				continue
			}

			if opts.Observer != nil {
				opts.emit(Event{Kind: EventMoveProposed, Pass: passNo, Level: j,
					Conn: grp.node, From: cur, To: bestE, Group: len(grp.members), CostBefore: curCost})
			}
			trial := s.clone()
			trial.applyMove(j, grp, bestE, metric)
			trialCost, err := trial.cost()
			if err != nil || trialCost >= curCost-costEps {
				if opts.Observer != nil {
					opts.emit(Event{Kind: EventMoveRejected, Pass: passNo, Level: j,
						Conn: grp.node, From: cur, To: bestE, Group: len(grp.members),
						CostBefore: curCost, CostAfter: trialCost})
				}
				continue
			}
			if opts.Observer != nil {
				opts.emit(Event{Kind: EventMoveAccepted, Pass: passNo, Level: j,
					Conn: grp.node, From: cur, To: bestE, Group: len(grp.members),
					CostBefore: curCost, CostAfter: trialCost})
			}
			*s = *trial
			curCost = trialCost
			moves++
			nextConn = append(nextConn, bestE)
		}
		if len(nextConn) == 0 {
			break // Theorem 4: earlier levels cannot branch either
		}
		groups = s.groupsAt(j, nextConn)
	}
	return moves, nil
}

func (s *state) clone() *state {
	c := &state{net: s.net, task: s.task, w: s.w, sc: s.sc, price: s.price,
		serve: append([]int(nil), s.serve...),
		tail:  make([][]int, len(s.tail)),
	}
	for i := range s.tail {
		c.tail[i] = append([]int(nil), s.tail[i]...)
	}
	return c
}

// cost evaluates the paper's objective for the current state from
// scratch: materialise, then price. Production prices in stageOne,
// optimize and once per stage-two trial move; the reference engine and
// the tests price wherever they like.
func (s *state) cost() (float64, error) {
	e, err := s.embedding()
	if err != nil {
		return 0, err
	}
	return s.net.Cost(e).Total, nil
}

// usedCapacity returns per-node capacity consumed by the current new
// instances (pre-deployed demand is accounted by the Network itself).
func (s *state) usedCapacity() map[int]float64 {
	used := make(map[int]float64)
	for _, inst := range s.appendPlaced(nil) {
		vnf, err := s.net.VNF(inst.VNF)
		if err != nil {
			continue // unreachable: instances come from a validated task
		}
		used[inst.Node] += vnf.Demand
	}
	return used
}

// canHostNaive is canHost re-derived from the serving assignment.
func (s *state) canHostNaive(f, v int) bool {
	if !s.net.IsServer(v) {
		return false
	}
	if s.net.IsDeployed(f, v) {
		return true
	}
	if placedAt(s.appendPlaced(nil), f, v) {
		return true
	}
	vnf, err := s.net.VNF(f)
	if err != nil {
		return false
	}
	return s.net.FreeCapacity(v)-s.usedCapacity()[v]+1e-9 >= vnf.Demand
}

// instanceSetupCostNaive is instanceSetupCost re-derived from the
// serving assignment.
func (s *state) instanceSetupCostNaive(f, u int) float64 {
	if s.net.IsDeployed(f, u) {
		return 0
	}
	if placedAt(s.appendPlaced(nil), f, u) {
		return 0
	}
	return s.net.SetupCost(f, u)
}
