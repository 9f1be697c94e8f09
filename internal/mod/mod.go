// Package mod builds the multilevel overlay directed (MOD) network of
// the paper's Algorithm 1 and its *expanded* form (Fig. 4), in which
// every overlay node is split into an in/out pair joined by a virtual
// arc weighted with the VNF setup cost. A single Dijkstra run from the
// source over the expanded MOD network yields, for every candidate
// host of the last chain VNF, the cost-optimal SFC embedding ending
// there (Theorem 2).
//
// Columns correspond to chain positions 1..k, rows to server nodes of
// the target network. Arcs between adjacent columns carry the
// shortest-path cost between the corresponding physical nodes, so the
// overlay loses no information from the original network.
package mod

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"sftree/internal/graph"
	"sftree/internal/nfv"
)

var (
	// ErrNoServers reports a network without any server node.
	ErrNoServers = errors.New("mod: network has no server nodes")
	// ErrEmptyChain reports an empty SFC.
	ErrEmptyChain = errors.New("mod: empty chain")
	// ErrSourceUnreachable reports that no server is reachable from
	// the source, so no SFC can be embedded.
	ErrSourceUnreachable = errors.New("mod: no server reachable from source")
)

// Network is the expanded MOD network for one (network, source, chain)
// triple. The overlay is implicit: every arc weight is either an entry
// of the metric closure or one of the k*S virtual-arc setup costs, so
// only the latter are stored and SolveSFC enumerates the arcs on the
// fly. A Network is immutable after Build and safe to share; its
// solution is computed on first demand and shared with it.
type Network struct {
	chain   nfv.SFC
	source  int
	servers []int         // physical IDs of candidate host nodes, ascending; shared with the nfv.Network
	rowOf   []int32       // node -> row index, -1 for non-servers
	metric  *graph.Metric // the closure of the network Build saw
	setup   []float64     // [(j-1)*S+row]: weight of column j's in->out arc at row

	solveOnce sync.Once
	sol       *SFCSolution
}

// Overlay node ID layout: 0 is the source; for column j in [1..k] and
// server row r, the "in" node is 1 + 2*((j-1)*S + r) and the "out"
// node is in+1.
func (m *Network) inID(j, row int) int  { return 1 + 2*((j-1)*len(m.servers)+row) }
func (m *Network) outID(j, row int) int { return m.inID(j, row) + 1 }

// Build constructs the expanded MOD network. Setup costs reflect
// deployment state: pre-deployed chain VNFs cost zero (§IV-D).
func Build(net *nfv.Network, source int, chain nfv.SFC) (*Network, error) {
	if len(chain) == 0 {
		return nil, ErrEmptyChain
	}
	for _, f := range chain {
		if _, err := net.VNF(f); err != nil {
			return nil, fmt.Errorf("mod: %w", err)
		}
	}
	servers := net.ServerList()
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	if source < 0 || source >= net.NumNodes() {
		return nil, fmt.Errorf("mod: %w: source %d", graph.ErrNodeOutOfRange, source)
	}
	metric := net.Metric()
	if !slices.ContainsFunc(servers, func(v int) bool { return metric.Dist[source][v] != graph.Inf }) {
		return nil, ErrSourceUnreachable
	}

	s := len(servers)
	m := &Network{
		chain:   append(nfv.SFC(nil), chain...),
		source:  source,
		servers: servers,
		rowOf:   make([]int32, net.NumNodes()),
		metric:  metric,
		setup:   make([]float64, len(chain)*s),
	}
	for v := range m.rowOf {
		m.rowOf[v] = -1
	}
	for r, v := range servers {
		m.rowOf[v] = int32(r)
	}
	for j, f := range chain {
		col := m.setup[j*s : (j+1)*s]
		for r, v := range servers {
			col[r] = net.SetupCost(f, v)
		}
	}
	return m, nil
}

// Chain returns the SFC the overlay was built for.
func (m *Network) Chain() nfv.SFC { return append(nfv.SFC(nil), m.chain...) }

// Servers returns the candidate host nodes (physical IDs) forming the
// overlay rows.
func (m *Network) Servers() []int { return append([]int(nil), m.servers...) }

// NumOverlayNodes returns the size of the paper's expanded overlay,
// including the source.
func (m *Network) NumOverlayNodes() int { return 1 + 2*len(m.chain)*len(m.servers) }

// NumOverlayArcs returns the arc count of the paper's expanded
// overlay: the arcs SolveSFC enumerates, none of which is stored.
// It scans the S*S server block of the metric on every call.
func (m *Network) NumOverlayArcs() int {
	arcs := len(m.chain) * len(m.servers) // virtual in->out arcs
	between := 0
	for _, va := range m.servers {
		if m.metric.Dist[m.source][va] != graph.Inf {
			arcs++
		}
		for _, vb := range m.servers {
			if m.metric.Dist[va][vb] != graph.Inf {
				between++
			}
		}
	}
	return arcs + (len(m.chain)-1)*between
}

// SFCSolution is the result of one Dijkstra sweep over the expanded
// MOD network: per candidate last-VNF host, the optimal SFC embedding
// cost and host sequence.
type SFCSolution struct {
	m    *Network
	tree *graph.ShortestPathTree
}

// SolveSFC runs Dijkstra from the source over the expanded overlay.
//
// The arcs leaving a node are enumerated in a fixed order — from the
// source to column 1 by ascending row (Fig. 4 step 1); from an "in"
// node to its "out" node; from an "out" node of column j < k to the
// "in" nodes of column j+1 by ascending row (Algorithm 1 step 2) —
// and unreachable pairs contribute no arc. Together with the strict <
// relaxation this order decides which of several equal-cost chains
// HostsTo reports, so it is part of the solver's contract: embeddings
// are reproducible only as long as it does not change.
//
// The solution is a pure function of the overlay, so it is computed
// once per Network: later calls, and concurrent ones, share the same
// read-only SFCSolution. An overlay served from a Cache therefore
// carries its solved SFC with it.
func (m *Network) SolveSFC() *SFCSolution {
	m.solveOnce.Do(func() { m.sol = m.solveSFC() })
	return m.sol
}

// solveSFC is the Dijkstra behind SolveSFC.
func (m *Network) solveSFC() *SFCSolution {
	n := m.NumOverlayNodes()
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = graph.Inf
		parent[i] = -1
	}
	graph.WithHeap(n, func(h *graph.NodeHeap) { m.dijkstra(h, dist, parent) })
	return &SFCSolution{m: m, tree: &graph.ShortestPathTree{Src: 0, Dist: dist, Parent: parent}}
}

// dijkstra fills dist and parent (preset to Inf and -1) from overlay
// node 0, using the empty heap h.
func (m *Network) dijkstra(h *graph.NodeHeap, dist []float64, parent []int) {
	s := len(m.servers)
	sink := m.outID(len(m.chain), 0) // "out" nodes from here on are the last column: no outgoing arcs
	dist[0] = 0
	h.Push(0, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > dist[u] {
			continue
		}
		switch {
		case u == 0:
			m.relaxColumn(h, dist, parent, u, du, m.metric.Dist[m.source], m.inID(1, 0))
		case u&1 == 1: // "in" node
			if out, nd := u+1, du+m.setup[(u-1)/2]; nd < dist[out] {
				dist[out] = nd
				parent[out] = u
				h.Push(out, nd)
			}
		case u < sink: // "out" node of column j = cell/s + 1
			cell := (u - 2) / 2
			m.relaxColumn(h, dist, parent, u, du, m.metric.Dist[m.servers[cell%s]], m.inID(cell/s+2, 0))
		}
	}
}

// relaxColumn relaxes the arcs from overlay node u (at distance du) to
// the "in" nodes of one column, rows ascending: first is the column's
// row-0 node and from the metric row of u's physical node.
func (m *Network) relaxColumn(h *graph.NodeHeap, dist []float64, parent []int, u int, du float64, from []float64, first int) {
	for r, v := range m.servers {
		if d := from[v]; d != graph.Inf {
			if in, nd := first+2*r, du+d; nd < dist[in] {
				dist[in] = nd
				parent[in] = u
				h.Push(in, nd)
			}
		}
	}
}

// CostTo returns the minimum cost (setup + links) of embedding the
// whole chain with its last VNF hosted on physical node v, or +Inf if
// v is not a reachable server.
func (s *SFCSolution) CostTo(v int) float64 {
	r := s.m.row(v)
	if r < 0 {
		return graph.Inf
	}
	return s.tree.Dist[s.m.outID(len(s.m.chain), r)]
}

// row returns v's server row index, or -1 when v is not a server.
func (m *Network) row(v int) int {
	if v < 0 || v >= len(m.rowOf) {
		return -1
	}
	return int(m.rowOf[v])
}

// HostsTo returns the chain host sequence (one physical node per chain
// position, repeats allowed) of the optimal embedding ending at v, or
// nil if unreachable.
func (s *SFCSolution) HostsTo(v int) []int {
	r := s.m.row(v)
	if r < 0 {
		return nil
	}
	k := len(s.m.chain)
	goal := s.m.outID(k, r)
	if s.tree.Dist[goal] == graph.Inf {
		return nil
	}
	// Walk the shortest-path tree back to the source; the path crosses
	// every column once, and the column's host is read at its "in" node.
	hosts := make([]int, k)
	j := k
	for id := goal; id > 0; id = s.tree.Parent[id] {
		if id&1 == 1 {
			if j == 0 {
				return nil
			}
			j--
			hosts[j] = s.m.servers[(id-1)/2%len(s.m.servers)]
		}
	}
	if j != 0 {
		return nil
	}
	return hosts
}

// BestHost returns the candidate last-VNF host with the cheapest SFC
// embedding and its cost.
func (s *SFCSolution) BestHost() (int, float64) {
	best, bestCost := -1, graph.Inf
	for _, v := range s.m.servers {
		if c := s.CostTo(v); c < bestCost {
			best, bestCost = v, c
		}
	}
	return best, bestCost
}

// ChainCost recomputes the cost of a host sequence directly from the
// metric and setup costs: dist(S,h1) + sum_j setup(l_j,h_j) +
// sum_j dist(h_j,h_{j+1}). Used to cross-check HostsTo decoding and to
// price repaired chains. A sequence of the wrong length or with a
// non-server host costs +Inf.
func (m *Network) ChainCost(hosts []int) float64 {
	if len(hosts) != len(m.chain) {
		return graph.Inf
	}
	cost := m.metric.Dist[m.source][hosts[0]]
	for j, h := range hosts {
		r := m.row(h)
		if r < 0 {
			return graph.Inf
		}
		cost += m.setup[j*len(m.servers)+r]
		if j+1 < len(hosts) {
			cost += m.metric.Dist[h][hosts[j+1]]
		}
	}
	return cost
}
