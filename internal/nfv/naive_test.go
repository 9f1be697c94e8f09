package nfv

import (
	"fmt"
	"math"
	"slices"
)

// This file is the per-hop validator and pricer, kept as the reference
// the segment walker (walk) is asserted against in walker_test.go and
// fuzz_test.go. It looks every hop of every walk up again, through
// Graph.HasEdge when validating and CSR.Arc when pricing, and skips
// nothing.

// validateNaive is Validate checking every hop of every walk.
func validateNaive(net *Network, e *Embedding) error {
	task := e.Task
	if err := task.Validate(net); err != nil {
		return err
	}
	k := task.K()
	if len(e.Walks) != len(task.Destinations) {
		return fmt.Errorf("%w: %d walks for %d destinations",
			ErrInfeasible, len(e.Walks), len(task.Destinations))
	}

	for i, inst := range e.NewInstances {
		vnf, err := net.VNF(inst.VNF)
		if err != nil {
			return fmt.Errorf("%w: new instance %+v: %v", ErrInfeasible, inst, err)
		}
		if !net.IsServer(inst.Node) {
			return fmt.Errorf("%w: new instance of %q on switch node %d",
				ErrInfeasible, vnf.Name, inst.Node)
		}
		if net.IsDeployed(inst.VNF, inst.Node) {
			return fmt.Errorf("%w: instance of %q on node %d duplicates a deployed one",
				ErrInfeasible, vnf.Name, inst.Node)
		}
		if placedBefore(e.NewInstances[:i], inst.VNF, inst.Node) {
			return fmt.Errorf("%w: duplicate new instance of %q on node %d",
				ErrInfeasible, vnf.Name, inst.Node)
		}
	}
	for i, inst := range e.NewInstances {
		v, add, first := inst.Node, 0.0, true
		for j, in := range e.NewInstances {
			if in.Node != v {
				continue
			}
			if j < i {
				first = false
				break
			}
			add += net.tab.catalog[in.VNF].Demand
		}
		if first && net.UsedCapacity(v)+add > net.Capacity(v)+1e-9 {
			return fmt.Errorf("%w: constraint (1d): node %d capacity %v exceeded (used %v + new %v)",
				ErrInfeasible, v, net.Capacity(v), net.UsedCapacity(v), add)
		}
	}

	for di, d := range task.Destinations {
		w := e.Walks[di]
		if len(w) != k+1 {
			return fmt.Errorf("%w: destination %d walk has %d segments, want %d",
				ErrInfeasible, d, len(w), k+1)
		}
		prevEnd := task.Source
		for j := 0; j <= k; j++ {
			seg := w[j]
			if seg.Level != j {
				return fmt.Errorf("%w: destination %d segment %d labelled level %d",
					ErrInfeasible, d, j, seg.Level)
			}
			if len(seg.Path) == 0 {
				return fmt.Errorf("%w: destination %d segment %d empty", ErrInfeasible, d, j)
			}
			if seg.Path[0] != prevEnd {
				return fmt.Errorf("%w: constraint (1e): destination %d segment %d starts at %d, want %d",
					ErrInfeasible, d, j, seg.Path[0], prevEnd)
			}
			for i := 1; i < len(seg.Path); i++ {
				if _, ok := net.g.HasEdge(seg.Path[i-1], seg.Path[i]); !ok {
					return fmt.Errorf("%w: destination %d segment %d uses non-edge %d-%d",
						ErrInfeasible, d, j, seg.Path[i-1], seg.Path[i])
				}
			}
			prevEnd = seg.Path[len(seg.Path)-1]
			if j < k {
				host := prevEnd
				f := task.Chain[j]
				if !net.IsDeployed(f, host) && !placedBefore(e.NewInstances, f, host) {
					return fmt.Errorf("%w: constraint (1b): destination %d level %d needs VNF %d on node %d but none is placed there",
						ErrInfeasible, d, j+1, f, host)
				}
			}
		}
		if prevEnd != d {
			return fmt.Errorf("%w: destination %d walk ends at %d", ErrInfeasible, d, prevEnd)
		}
	}
	return nil
}

// costNaive is Cost pricing every hop of every walk.
func costNaive(net *Network, e *Embedding) CostBreakdown {
	var bd CostBreakdown
	for i, inst := range e.NewInstances {
		if !placedBefore(e.NewInstances[:i], inst.VNF, inst.Node) {
			bd.Setup += net.SetupCost(inst.VNF, inst.Node)
		}
	}
	csr := net.g.CSR()
	words := (csr.NumArcs() + 63) / 64
	var levels []int
	var seen []uint64
	for _, w := range e.Walks {
		for _, seg := range w {
			if len(seg.Path) < 2 {
				continue
			}
			li := slices.Index(levels, seg.Level)
			if li < 0 {
				li = len(levels)
				levels = append(levels, seg.Level)
				seen = append(seen, make([]uint64, words)...)
			}
			row := seen[li*words : (li+1)*words]
			for i := 1; i < len(seg.Path); i++ {
				arc := csr.Arc(seg.Path[i-1], seg.Path[i])
				if arc < 0 {
					bd.Link = math.Inf(1)
					bd.Total = math.Inf(1)
					return bd
				}
				if bit := uint64(1) << (arc & 63); row[arc>>6]&bit == 0 {
					row[arc>>6] |= bit
					bd.Link += csr.Cost[arc]
				}
			}
		}
	}
	bd.Total = bd.Setup + bd.Link
	return bd
}
