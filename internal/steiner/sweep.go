package steiner

import (
	"fmt"
	"math"
	"math/bits"

	"sftree/internal/graph"
)

// Sweep is KMB's per-solve form. Stage one asks for one KMB tree per
// candidate last-host, every one of them over the same destination
// set D with only the root changed, so everything that does not
// depend on the root is computed once: the deduplicated destinations,
// the block of metric distances between them, and (lazily) each
// ordered D-D shortest path as a pair of bitsets. Tree(root) and
// Cost(root) then equal KMB(g, m, [root]+D) edge for edge and bit for
// bit; KMB itself is a sweep of one.
//
// A Sweep holds a pooled workspace and a memo it fills as it goes, so
// it serves one goroutine at a time; parallel callers take one each.
// Close returns the workspace.
type Sweep struct {
	g  *graph.Graph
	m  *graph.Metric
	ws *workspace
	// dests is D deduplicated in first-seen order (td of them). The
	// workspace holds the rest: dd[i*td+j] = key(m.Dist[dests[i]][dests[j]])
	// (orientation kept: Dist is not bitwise symmetric), and
	// slot[i*td+j], the arena offset of the memoised shortest path
	// dests[i] -> dests[j] as ew words of edge ids then nw words of
	// nodes, or -1 until a closure first uses that ordered pair. A
	// sweep touches about 2*td of the td*td pairs, so the arena grows
	// by the path instead of being laid out up front.
	dests  []int
	ew, nw int
	stats  SweepCounters
}

// SweepCounters counts what one sweep has done.
type SweepCounters struct {
	// Trees is the number of KMB trees built (Tree and Cost calls over
	// at least two terminals that passed the reachability check).
	Trees int64
	// GeneralTrees is how many of them were not already trees after
	// the closure expansion and took the Kruskal-and-prune branch.
	GeneralTrees int64
	// MemoHits and MemoFills count lookups of a D-D shortest path in
	// the sweep's memo: served from it, or walked and stored.
	MemoHits, MemoFills int64
}

// fromRoot is the closure-edge origin of a root outside D; origins
// inside D are indices into dests.
const fromRoot = -1

// NewSweep prepares KMB trees over dests for any number of roots. m
// must be the metric of g.
func NewSweep(g *graph.Graph, m *graph.Metric, dests []int) *Sweep {
	s := new(Sweep)
	s.init(g, m, dests)
	return s
}

// init is NewSweep on a caller-owned (for KMB, stack-allocated) Sweep.
func (s *Sweep) init(g *graph.Graph, m *graph.Metric, dests []int) {
	ws := getWS()
	*s = Sweep{g: g, m: m, ws: ws, dests: ws.dedup(dests, g.NumNodes()),
		ew: (g.NumEdges() + 63) / 64, nw: (g.NumNodes() + 63) / 64}
	td := len(s.dests)
	if cap(ws.dd) < td*td {
		ws.dd = make([]uint64, td*td)
		ws.slot = make([]int32, td*td)
	}
	ws.dd, ws.slot = ws.dd[:td*td], ws.slot[:td*td]
	for i, a := range s.dests {
		from := m.Dist[a]
		row := ws.dd[i*td : (i+1)*td]
		for j, b := range s.dests {
			row[j] = key(from[b])
		}
	}
	for i := range ws.slot {
		ws.slot[i] = -1
	}
	ws.arena = ws.arena[:0]
	if cap(ws.bits) < s.ew+s.nw {
		ws.bits = make([]uint64, s.ew+s.nw)
	}
	ws.bits = ws.bits[:s.ew+s.nw]
}

// Close releases the sweep's workspace. A closed sweep panics on use
// (Counters still answers); closing it again is a no-op.
func (s *Sweep) Close() {
	if s.ws == nil {
		return
	}
	putWS(s.ws)
	s.ws, s.dests = nil, nil
}

// Counters reports what this sweep has done so far.
func (s *Sweep) Counters() SweepCounters { return s.stats }

// Tree returns KMB(g, m, [root]+D).
func (s *Sweep) Tree(root int) (Tree, error) {
	ids, err := s.build(root)
	if err != nil {
		return Tree{}, err
	}
	return treeFromEdges(s.g, ids), nil
}

// Cost returns the cost of Tree(root) without materialising it: when
// the expansion is the tree, the edge costs are summed straight off
// its set bits, in the ascending id order Tree lists them in.
func (s *Sweep) Cost(root int) (float64, error) {
	isTree, err := s.expand(root)
	if err != nil {
		return 0, err
	}
	var cost float64
	if !isTree {
		for _, id := range s.general(root) {
			cost += s.g.Edge(id).Cost
		}
		return cost, nil
	}
	for i, w := range s.ws.bits[:s.ew] {
		for ; w != 0; w &= w - 1 {
			cost += s.g.Edge(i<<6 + bits.TrailingZeros64(w)).Cost
		}
	}
	return cost, nil
}

// LowerBound is a price that no tree spanning D undercuts, whatever
// its root. Every Cost(root) is such a tree, so none is below it but
// for float rounding, which callers leave a slack for. It is 0 when D
// has fewer than two distinct nodes and +Inf when some pair of them is
// disconnected. Two destinations are bounded by their distance, three
// by the exact optimum (star), more by the larger of spanBound and a
// dual solution of the bidirected cut relaxation (moats). It bounds a
// tree over D alone, not a service function tree, whose chain may share
// the tree's edges.
func (s *Sweep) LowerBound() float64 {
	lb := s.spanBound()
	switch {
	case len(s.dests) < 3 || lb == 0 || lb == graph.Inf:
		return lb // at 0, a tree of zero cost spans D
	case len(s.dests) == 3:
		return max(lb, s.star())
	}
	return max(lb, s.moats())
}

// spanBound is the weight of the minimum spanning tree of D's metric
// closure divided by the Steiner ratio 2(1-1/|D|) (a Steiner tree's
// doubled Euler tour, shortcut to D and less its longest stretch, is a
// spanning path of the closure). Each closure edge is read as the
// smaller of its two orientations. It is 0 below two distinct
// destinations and +Inf when some pair of them is disconnected.
func (s *Sweep) spanBound() float64 {
	ws, td := s.ws, len(s.dests)
	if td < 2 {
		return 0
	}
	// Prim from dests[0] over the open terminals, on the keys expand
	// reads; the pick is swapped out, since order does not change the
	// weight.
	open := ws.open[:0]
	for i := 1; i < td; i++ {
		open = append(open, openSlot{key: infKey, at: int32(i)})
	}
	at, mst := 0, 0.0
	for len(open) > 0 {
		next, nearest := 0, uint64(infKey)
		for p := range open {
			o := &open[p]
			if d := min(ws.dd[at*td+int(o.at)], ws.dd[int(o.at)*td+at]); d < o.key {
				o.key = d
			}
			if o.key < nearest {
				next, nearest = p, o.key
			}
		}
		if nearest == infKey {
			mst = graph.Inf
			break
		}
		mst += math.Float64frombits(nearest)
		at = int(open[next].at)
		open[next] = open[len(open)-1]
		open = open[:len(open)-1]
	}
	ws.open = open[:0]
	return mst / (2 * (1 - 1/float64(td)))
}

// star is the cost of a minimum tree spanning three terminals a, b, c:
// such a tree has at most one node of degree three, so it is the
// cheapest union of shortest paths from a, b and c to one node v (v one
// of them when the tree is a path), min over v of the three distances.
func (s *Sweep) star() float64 {
	a, b, c := s.m.Dist[s.dests[0]], s.m.Dist[s.dests[1]], s.m.Dist[s.dests[2]]
	best := graph.Inf
	for v, d := range a {
		best = min(best, d+b[v]+c[v])
	}
	return best
}

// build runs KMB for one root and returns the tree's edge ids in
// ascending order, in workspace storage valid until the next call.
func (s *Sweep) build(root int) ([]int, error) {
	isTree, err := s.expand(root)
	if err != nil {
		return nil, err
	}
	if !isTree {
		return s.general(root), nil
	}
	return s.edgeIDs(), nil
}

// expand runs KMB's steps 1 and 2 for one root, leaves the expansion
// in the workspace's edge and node bitsets, and reports whether it is
// the answer as it stands.
//
// Steps 1 and 2 are the textbook ones — Prim over the metric closure
// of dedup([root]+D), starting at the root, lowest index first and
// strict < on ties; closure edges expanded along the metric's (from,
// to) shortest paths — with the paths between destinations OR-ed in
// from the memo. Steps 3 and 4 (MST of the expansion, pruning of
// non-terminal leaves) are decided by two popcounts. The expansion is
// connected by construction, so it is a tree exactly when it has one
// edge fewer than nodes; Kruskal keeps every edge of a tree, and every
// leaf of a union of terminal-to-terminal simple paths is a terminal,
// so pruning removes none: the expansion is the answer, read off in id
// order, which is the order prune sorts into. Otherwise the expansion
// goes through general.
func (s *Sweep) expand(root int) (isTree bool, err error) {
	ws, td := s.ws, len(s.dests)
	clear(ws.bits)
	rootAt := fromRoot // root's index in dests, if it is a destination
	rootRow := s.m.Dist[root]
	for i, d := range s.dests {
		if d == root {
			rootAt = i
		} else if rootRow[d] == graph.Inf {
			return false, fmt.Errorf("%w: %d and %d", ErrUnreachable, root, d)
		}
	}
	if td == 0 || (td == 1 && rootAt == 0) {
		return true, nil // a single terminal: the empty tree
	}
	s.stats.Trees++

	// 1. Prim, on keys (see key). The root joins first; each later
	// round picks the open terminal nearest the tree and, in the same
	// pass that relaxes the others against it and closes its slot, finds
	// the next pick. The open terminals stay packed in ascending index
	// order, so a strict < keeps the lowest index among equals.
	open := ws.open[:0]
	next, nearest := 0, uint64(infKey) // the pick's position in open and its key
	for i, d := range s.dests {
		if i == rootAt {
			continue
		}
		k := key(rootRow[d])
		if k < nearest {
			next, nearest = len(open), k
		}
		open = append(open, openSlot{key: k, at: int32(i), from: int32(rootAt)})
	}
	closure := ws.pairs[:0] // (from, to) indices into dests
	for len(open) > 0 {
		pick, at := next, open[next].at
		closure = append(closure, [2]int32{open[pick].from, at})
		row := ws.dd[int(at)*td : (int(at)+1)*td]
		next, nearest = 0, infKey
		for p, o := range open[:pick] {
			if d := row[o.at]; d < o.key {
				o.key, o.from = d, at
			}
			open[p] = o
			if o.key < nearest {
				next, nearest = p, o.key
			}
		}
		for p, o := range open[pick+1:] {
			if d := row[o.at]; d < o.key {
				o.key, o.from = d, at
			}
			open[pick+p] = o
			if o.key < nearest {
				next, nearest = pick+p, o.key
			}
		}
		open = open[:len(open)-1]
	}
	ws.open = open[:0]
	ws.pairs = closure

	// 2. Expand the closure edges into one edge bitset and one node
	// bitset.
	eb, nb := ws.bits[:s.ew], ws.bits[s.ew:]
	for _, ce := range closure {
		if ce[0] == fromRoot {
			s.walk(root, s.dests[ce[1]], eb, nb)
			continue
		}
		off := s.path(int(ce[0]), int(ce[1]))
		for i, w := range ws.arena[off : off+len(ws.bits)] {
			ws.bits[i] |= w // edge words then node words, as in the memo
		}
	}

	edges, nodes := 0, 0
	for _, w := range eb {
		edges += bits.OnesCount64(w)
	}
	for _, w := range nb {
		nodes += bits.OnesCount64(w)
	}
	return edges == nodes-1, nil
}

// edgeIDs reads the expansion's edges off in ascending id order, into
// workspace storage.
func (s *Sweep) edgeIDs() []int {
	ids := s.ws.edges[:0]
	for i, w := range s.ws.bits[:s.ew] {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, i<<6+bits.TrailingZeros64(w))
		}
	}
	s.ws.edges = ids
	return ids
}

// general is steps 3 and 4 as they always were, for an expansion that
// holds a cycle.
func (s *Sweep) general(root int) []int {
	ws := s.ws
	s.edgeIDs()
	s.stats.GeneralTrees++
	ws.rootTerms = append(append(ws.rootTerms[:0], root), s.dests...)
	return ws.prune(s.g, ws.mstOfCollected(s.g), ws.rootTerms)
}

// path returns the arena offset of the memoised shortest path
// dests[i] -> dests[j], walking and storing it on first use.
func (s *Sweep) path(i, j int) int {
	ws := s.ws
	at := i*len(s.dests) + j
	if off := ws.slot[at]; off >= 0 {
		s.stats.MemoHits++
		return int(off)
	}
	off := len(ws.arena)
	ws.arena = append(ws.arena, make([]uint64, s.ew+s.nw)...)
	p := ws.arena[off:]
	s.walk(s.dests[i], s.dests[j], p[:s.ew], p[s.ew:])
	ws.slot[at] = int32(off)
	s.stats.MemoFills++
	return off
}

// walk sets the bits of the metric's shortest path u -> v: every node
// on it in nb, and per hop the edge under the metric's first arc — the
// cheapest joining the two nodes — in eb.
func (s *Sweep) walk(u, v int, eb, nb []uint64) {
	nb[u>>6] |= 1 << (u & 63)
	s.m.EachEdge(u, v, func(to, id int) {
		eb[id>>6] |= 1 << (id & 63)
		nb[to>>6] |= 1 << (to & 63)
	})
}
