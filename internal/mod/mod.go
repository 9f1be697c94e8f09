// Package mod builds the multilevel overlay directed (MOD) network of
// the paper's Algorithm 1 and its *expanded* form (Fig. 4), in which
// every overlay node is split into an in/out pair joined by a virtual
// arc weighted with the VNF setup cost. One shortest-path pass from the
// source over the expanded MOD network yields, for every candidate
// host of the last chain VNF, the cost-optimal SFC embedding ending
// there (Theorem 2). The network is a layered DAG, so the pass is a
// column-by-column dynamic program rather than a general Dijkstra.
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
// only the latter are stored and SolveSFC reads the arcs it needs on
// the fly. A Network is immutable after Build and safe to share; its
// solution and its candidate table are computed on first demand and
// shared with it.
//
// Build and Cache.Get each hand out one reference, which Release hands
// back. When the last one goes, the setup block, the solution's arrays
// and the candidate rows return to a pool for the next Build; an
// overlay nobody releases is simply left to the garbage collector.
type Network struct {
	chain   nfv.SFC
	source  int
	servers []int         // physical IDs of candidate host nodes, ascending; shared with the nfv.Network
	rowOf   []int32       // node -> row index, -1 for non-servers; shared with the nfv.Network
	metric  *graph.Metric // the closure of the network Build saw
	setup   []float64     // [(j-1)*S+row]: weight of column j's in->out arc at row

	solveOnce sync.Once
	sol       SFCSolution

	candOnce sync.Once
	cands    []Candidate

	// entry is the cache slot that owns this overlay, nil for one Build
	// handed out directly.
	entry *cacheEntry
}

// overlays recycles released Networks with their buffers.
var overlays sync.Pool

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

	m, _ := overlays.Get().(*Network)
	if m == nil {
		m = new(Network)
	}
	s := len(servers)
	*m = Network{
		chain:   append(m.chain[:0], chain...),
		source:  source,
		servers: servers,
		rowOf:   net.ServerRows(),
		metric:  metric,
		setup:   resize(m.setup, len(chain)*s),
		sol:     SFCSolution{out: m.sol.out, pred: m.sol.pred},
		cands:   m.cands[:0],
	}
	for j, f := range chain {
		col := m.setup[j*s : (j+1)*s]
		for r, v := range servers {
			col[r] = net.SetupCost(f, v)
		}
	}
	return m, nil
}

// resize returns buf with length n, reallocated only when too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Release hands back one reference (see Network). The caller must not
// touch the overlay, its SFCSolution or its candidate rows afterwards.
func (m *Network) Release() {
	if m.entry != nil {
		m.entry.release()
		return
	}
	m.recycle()
}

// recycle returns m's buffers to the pool once no reference is left.
func (m *Network) recycle() {
	m.servers, m.rowOf, m.metric, m.entry = nil, nil, nil, nil
	overlays.Put(m)
}

// Chain returns the SFC the overlay was built for.
func (m *Network) Chain() nfv.SFC { return append(nfv.SFC(nil), m.chain...) }

// Servers returns the candidate host nodes (physical IDs) forming the
// overlay rows.
func (m *Network) Servers() []int { return append([]int(nil), m.servers...) }

// NumOverlayArcs returns the arc count of the paper's expanded
// overlay, none of which is stored.
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

// SFCSolution is the result of the chain search over the expanded MOD
// network: per candidate last-VNF host, the optimal SFC embedding cost
// and host sequence. Both slabs are indexed [(j-1)*S+row] for column j.
type SFCSolution struct {
	m    *Network
	out  []float64 // cost of the cheapest embedding of l_1..l_j with l_j on that row; +Inf if there is none
	pred []int32   // the row hosting l_{j-1} in that embedding; -1 in column 1 and on rows nothing reaches
	// Predecessor rows the search relaxed, rows it skipped as dominated
	// (see dominated), and rows with a finite out it could have relaxed,
	// summed over columns 1..k-1.
	rowsRelaxed, rowsDominated, rowsFinite int
}

// Rows reports how much of the overlay this solution's chain search
// read: predecessor rows relaxed, rows skipped because a relaxed row
// already undercut them, and rows with a finite distance. The S*S arc
// block between two columns is read one relaxed row at a time, so
// relaxed/total is also the share of inter-column arcs read.
func (s *SFCSolution) Rows() (relaxed, dominated, total int) {
	return s.rowsRelaxed, s.rowsDominated, s.rowsFinite
}

// SolveSFC computes shortest-path distances from the source to every
// "out" node of the expanded overlay, column by column:
//
//	in_1[r]     = dist(source, server r)
//	out_j[r]    = in_j[r] + setup_j[r]
//	in_{j+1}[r] = min over rows a of out_j[a] + dist(server a, server r)
//
// Among the rows a attaining a minimum, the predecessor kept is the
// first in ascending (out_j[a], a) order. That is the order Dijkstra
// would pop column j in, so distances and predecessors are those of
// Dijkstra over the stored-arc overlay, except that rows tied on a
// bit-equal out_j resolve to the lower row. The order decides which of
// several equal-cost chains HostsTo reports, so it is part of the
// solver's contract (ALGORITHM.md, "Implicit MOD overlay").
//
// The solution is a pure function of the overlay, so it is computed
// once per Network: later calls, and concurrent ones, share the same
// read-only SFCSolution. An overlay served from a Cache therefore
// carries its solved SFC with it.
func (m *Network) SolveSFC() *SFCSolution {
	m.solveOnce.Do(m.solveSFC)
	return &m.sol
}

// dominanceSlack is the relative margin by which a row's tentative in
// must undercut its own out before the column pass skips the row. It
// is far above the rounding a metric entry and a sum of two carry
// (≈1e-13 at a few hundred hops), so a skipped row is one a relaxation
// could not have let win (ALGORITHM.md, "A dominated row is not
// taken").
const dominanceSlack = 1e-9

// dominated reports that a row whose out is du, and which some relaxed
// row already reaches for in, is undercut by more than the slack: by
// the triangle inequality that relaxed row then reaches every row for
// less than du plus the link from this one, so relaxing it can win no
// strict <. margin is the slack's absolute term (see solveSFC).
func dominated(in, du, margin float64) bool { return in < du-dominanceSlack*du-margin }

// shortlists pools the column pass's predecessor lists.
var shortlists = sync.Pool{New: func() any { return new([]int32) }}

// solveSFC is the column pass behind SolveSFC, into m.sol.
func (m *Network) solveSFC() {
	s, k := len(m.servers), len(m.chain)
	sol := &m.sol
	sol.m, sol.out, sol.pred = m, resize(sol.out, k*s), resize(sol.pred, k*s)
	for i := range sol.pred {
		sol.out[i], sol.pred[i] = graph.Inf, -1
	}
	from := m.metric.Dist[m.source]
	far := 0.0 // the distance to the farthest server the source reaches
	for r, v := range m.servers {
		sol.out[r] = from[v] + m.setup[r]
		if d := from[v]; d != graph.Inf && d > far {
			far = d
		}
	}
	// A row with a finite out is a server the source reaches, so no link
	// the slack guards is longer than 2*far.
	margin := 2 * dominanceSlack * far
	buf := shortlists.Get().(*[]int32)
	for j := 1; j < k; j++ {
		out := sol.out[(j-1)*s : j*s]
		in, pred := sol.out[j*s:(j+1)*s], sol.pred[j*s:(j+1)*s]
		first := 0 // the lowest row holding out's minimum
		for r, d := range out {
			if d != graph.Inf {
				sol.rowsFinite++
			}
			if d < out[first] {
				first = r
			}
		}
		if out[first] == graph.Inf {
			continue
		}
		// Predecessors in ascending (out, row) order. Metric entries are
		// >= 0, so once the next out is no smaller than the largest
		// tentative in, neither it nor any later row can win a strict <.
		// That largest in only falls, so every row the pass can still
		// take is on a shortlist drawn once the first is relaxed: the rows
		// below it, less those already dominated (in only falls, so they
		// stay dominated).
		worst := m.relax(first, out[first], in, pred)
		sol.rowsRelaxed++
		short := (*buf)[:0]
		for a, d := range out {
			switch {
			case d >= worst || a == first:
			case dominated(in[a], d, margin):
				sol.rowsDominated++
			default:
				short = append(short, int32(a))
			}
		}
		slices.SortFunc(short, func(a, b int32) int {
			switch {
			case out[a] < out[b]:
				return -1
			case out[b] < out[a]:
				return 1
			}
			return int(a - b)
		})
		for _, a := range short {
			du := out[a]
			if du >= worst {
				break
			}
			if dominated(in[a], du, margin) {
				sol.rowsDominated++
				continue
			}
			worst = m.relax(int(a), du, in, pred)
			sol.rowsRelaxed++
		}
		*buf = short
		for r, c := range m.setup[j*s : (j+1)*s] {
			in[r] += c
		}
	}
	shortlists.Put(buf)
}

// relax takes row a, whose out is du, as a predecessor for every row
// of the next column's in it undercuts, and returns the largest
// tentative in left.
func (m *Network) relax(a int, du float64, in []float64, pred []int32) (worst float64) {
	from := m.metric.Dist[m.servers[a]]
	for r, v := range m.servers {
		d := in[r]
		if nd := du + from[v]; nd < d {
			d, in[r], pred[r] = nd, nd, int32(a)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Candidate is one row of a Network's candidate table: a last-VNF host
// and what stage one makes of the chain ending there before it looks
// at a destination.
type Candidate struct {
	// Cost is the price of the chain embedded for this candidate:
	// ChainCost of the optimal chain ending at Node after the solver's
	// capacity adjustment. Meaningful when Last >= 0.
	Cost float64
	// Node is the candidate, the last host of the overlay's optimal
	// chain (AppendHostsTo(Node)).
	Node int32
	// Last is the last VNF's host after the adjustment, which may have
	// moved it off Node; NoChain or NoRoom when there is no chain to
	// connect the destinations to.
	Last int32
}

// The Candidate.Last values of a row without a chain.
const (
	// NoChain: no chain ends at Node (not a reachable server). Such a
	// row is not a candidate stage one tries.
	NoChain int32 = -1 - iota
	// NoRoom: some VNF of the chain fits nowhere.
	NoRoom
)

// Candidates returns the overlay's candidate table, calling build for
// it on first use: later calls, and concurrent ones, share the rows
// read-only, so an overlay served from a Cache carries them with it
// (16 B per server). build appends the rows to the empty slice it is
// given, whose array a released overlay left behind. The rows are a
// function of (source, chain, network state: topology, configuration
// and deployed set) like the overlay itself; every caller must pass a
// build that derives them from nothing else.
func (m *Network) Candidates(build func(rows []Candidate) []Candidate) []Candidate {
	m.candOnce.Do(func() { m.cands = build(m.cands[:0]) })
	return m.cands
}

// CostTo returns the minimum cost (setup + links) of embedding the
// whole chain with its last VNF hosted on physical node v, or +Inf if
// v is not a reachable server.
func (s *SFCSolution) CostTo(v int) float64 {
	r := s.m.row(v)
	if r < 0 {
		return graph.Inf
	}
	return s.out[len(s.out)-len(s.m.servers)+r]
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
func (s *SFCSolution) HostsTo(v int) []int { return s.AppendHostsTo(nil, v) }

// AppendHostsTo appends HostsTo(v) to dst and returns the extended
// slice; dst comes back unchanged when v is not a reachable server.
func (s *SFCSolution) AppendHostsTo(dst []int, v int) []int {
	if s.CostTo(v) == graph.Inf {
		return dst
	}
	n, size := len(dst), len(s.m.servers)
	dst = append(dst, make([]int, len(s.m.chain))...)
	r := s.m.row(v)
	for j := len(s.m.chain) - 1; j >= 0; j-- {
		dst[n+j] = s.m.servers[r]
		r = int(s.pred[j*size+r])
	}
	return dst
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
