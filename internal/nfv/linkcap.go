package nfv

import (
	"fmt"
	"sort"
)

// Link capacities are an optional extension beyond the paper's model:
// a link may carry at most a fixed number of flow copies (distinct
// (stage, direction) transmissions). The base Validate/Cost pair
// ignores capacities — exactly the paper's formulation — while
// LinkViolations exposes the overloads so capacity-aware solvers
// (core.SolveCapacityAware) can reroute around them.

// LinkViolation reports one overloaded link.
type LinkViolation struct {
	U        int `json:"u"`
	V        int `json:"v"`
	Copies   int `json:"copies"`
	Capacity int `json:"capacity"`
}

// SetLinkCapacity bounds the number of flow copies the link {u,v} may
// carry (0 removes the bound). The bound applies to every parallel
// edge between the two nodes collectively.
func (net *Network) SetLinkCapacity(u, v, copies int) error {
	if _, ok := net.g.HasEdge(u, v); !ok {
		return fmt.Errorf("nfv: no link %d-%d to bound", u, v)
	}
	if copies < 0 {
		return fmt.Errorf("nfv: negative link capacity %d", copies)
	}
	t := net.own()
	if t.linkCap == nil {
		t.linkCap = make(map[[2]int]int)
	}
	key := canonPair(u, v)
	if copies == 0 {
		delete(t.linkCap, key)
		return nil
	}
	t.linkCap[key] = copies
	return nil
}

// LinkCapacity returns the copy bound of link {u,v}; 0 means unlimited.
func (net *Network) LinkCapacity(u, v int) int {
	return net.tab.linkCap[canonPair(u, v)]
}

// LinkViolations returns every link whose configured copy bound the
// embedding exceeds, ordered by canonical endpoints. Copies are
// counted exactly like the cost oracle prices them: one per distinct
// (stage, direction) pair.
func (net *Network) LinkViolations(e *Embedding) []LinkViolation {
	if len(net.tab.linkCap) == 0 {
		return nil
	}
	type stageArc struct{ level, u, v int }
	seen := make(map[stageArc]bool)
	copies := make(map[[2]int]int)
	for _, w := range e.Walks {
		for _, seg := range w {
			for i := 1; i < len(seg.Path); i++ {
				key := stageArc{level: seg.Level, u: seg.Path[i-1], v: seg.Path[i]}
				if seen[key] {
					continue
				}
				seen[key] = true
				copies[canonPair(key.u, key.v)]++
			}
		}
	}
	var out []LinkViolation
	for pair, bound := range net.tab.linkCap {
		if c := copies[pair]; c > bound {
			out = append(out, LinkViolation{U: pair[0], V: pair[1], Copies: c, Capacity: bound})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

// ReweightedCopy returns a network over a fresh graph with the same
// topology but per-edge costs multiplied by factor(u, v); all NFV
// metadata (servers, capacities, setup costs, deployments, link
// bounds) is copied. Capacity-aware solving uses it to steer routes
// away from overloaded links, then re-prices results on the original.
func (net *Network) ReweightedCopy(factor func(u, v int) float64) (*Network, error) {
	g2 := newGraphLike(net.g)
	for _, e := range net.g.Edges() {
		f := factor(e.U, e.V)
		if f < 1 {
			f = 1
		}
		if _, err := g2.AddEdge(e.U, e.V, e.Cost*f); err != nil {
			return nil, fmt.Errorf("nfv: reweight: %w", err)
		}
	}
	c := net.Clone()
	c.g = g2
	c.metric = nil // distances changed
	c.metricFn = nil
	return c, nil
}

func canonPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
