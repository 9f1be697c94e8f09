package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// SteinerAlgo selects the Steiner-tree routine used by stage one.
type SteinerAlgo int

const (
	// SteinerKMB is the Kou-Markowsky-Berman 2-approximation (default).
	SteinerKMB SteinerAlgo = iota + 1
	// SteinerTM is the Takahashi-Matsuyama path-growing heuristic.
	SteinerTM
)

// Options tunes the two-stage algorithm. The zero value picks the
// paper's configuration: KMB trees, every server considered as the
// last-VNF host, and global-recompute move acceptance in stage two.
type Options struct {
	// Steiner selects the stage-one Steiner routine (default KMB).
	Steiner SteinerAlgo
	// AggressiveOPA is an extension beyond the paper: stage two also
	// considers dependent root-to-leaf paths (the paper discards them)
	// and probes the best candidate host even when the local rule is
	// not strictly satisfied. Every move is still gated on the
	// recomputed global cost, so the result can only improve; the
	// trade-off is more trial evaluations. It changes which moves a
	// pass proposes, not when stage two ends (see runOPA).
	AggressiveOPA bool
	// Scaffolds, when non-nil, memoizes per (source, chain signature,
	// network incarnation, graph generation, deployed set) everything
	// stage one derives without looking at a destination: the MOD
	// overlay, the chain search over it (mod.Network.SolveSFC runs once
	// per overlay) and the candidate table read off that
	// (mod.Network.Candidates: the last hosts in sweep order, each with
	// the verdict, last host and price of its capacity-repaired chain). A
	// same-signature solve at the same deployment — the same one, or one
	// the network has come back to — then starts at the Steiner trees.
	// An entry is served only to a network whose deployment bitset equals
	// the one it was built at, so results are bit-identical to building
	// fresh. A cached entry holds the solution's kS distance/predecessor
	// pairs, 12 B each, and S table rows of 16 B — at most 256 entries, so
	// ≈4.3 MB + 0.8 MB at S = 200, k = 7 — plus one deployment bitset per
	// state it keeps entries of (|catalog|·|V| bits: 376 B at |V| = 100
	// with 30 VNFs). Entries no second solve reused are dropped when the
	// deployment moves (see mod.Cache). The dynamic manager shares one
	// cache across concurrent admissions.
	Scaffolds *mod.Cache
	// Observer, when non-nil, receives structured phase events from
	// every stage of the solve (see observe.go). Nil costs one pointer
	// check per emission site and nothing else.
	Observer Observer
	// Ctx, when non-nil, bounds the solve: the algorithm polls it at
	// the APSP build, at stage boundaries, between stage-one candidate
	// hosts and at every stage-two pass and level boundary. On expiry
	// the solve stops where it is and returns the best feasible
	// embedding found so far (anytime semantics), with
	// Result.EarlyStop set; only when no feasible solution exists yet
	// does it fail, wrapping the context error. Nil means unbounded.
	Ctx context.Context
}

// ctxErr polls the deadline context without blocking; nil when the
// solve may continue.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

func (o Options) steiner() SteinerAlgo {
	if o.Steiner == 0 {
		return SteinerKMB
	}
	return o.Steiner
}

// StageStats reports how stage one reached its feasible solution.
type StageStats struct {
	CandidatesTried int
	Stage1Cost      float64
	LastHost        int
	// EarlyStop reports that the deadline context expired and the
	// candidate sweep stopped at the best feasible solution found.
	EarlyStop bool
}

// runMSA implements Algorithm 2: embed the SFC via the expanded MOD
// network, repair capacity violations, and connect the last VNF host
// to all destinations with a Steiner tree, trying every candidate
// host and keeping the cheapest feasible combination. Everything up to
// the tree is the overlay's candidate table (chainTable), built by the
// first solve to use the overlay; the loop below is the part that
// looks at the destinations.
func runMSA(net *nfv.Network, task nfv.Task, opts Options, sc *scratch) (*state, *StageStats, error) {
	if err := task.Validate(net); err != nil {
		return nil, nil, err
	}
	t0 := opts.now()
	var overlay *mod.Network
	var err error
	if opts.Scaffolds != nil {
		overlay, err = opts.Scaffolds.Get(net, task.Source, task.Chain)
	} else {
		overlay, err = mod.Build(net, task.Source, task.Chain)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: stage one: %w", err)
	}
	// Nothing the solve returns points into the overlay: the state copies
	// the hosts it takes from it.
	defer overlay.Release()
	t1 := opts.now()
	opts.emit(Event{Kind: EventOverlayBuilt, Duration: t1.Sub(t0), Scaffold: opts.Scaffolds != nil})
	sw := newSweeper(net, task, overlay, opts.steiner(), sc)
	rows := overlay.Candidates(sw.chainTable)
	t2 := opts.now()
	// Only the solve that built the table reports the chain search's
	// rows: each overlay's search is counted once, however often a
	// scaffold cache serves it.
	var relaxed, dominated, finite int
	if sw.tabled {
		relaxed, dominated, finite = sw.sol.Rows()
	}
	opts.emit(Event{Kind: EventSFCSolved, Duration: t2.Sub(t1), SFCRowsRelaxed: relaxed, SFCRowsDominated: dominated, SFCRows: finite})
	if sw.algo == SteinerKMB {
		sw.kmb = steiner.NewSweep(net.Graph(), sw.metric, task.Destinations)
		defer sw.kmb.Close()
	}

	// The sweep: rows in table order, a strict < on total cost picks the
	// winner, and the chain, the Steiner tree and stateFromSolution are
	// materialised only for improving candidates (a failure there skips
	// the candidate without touching the running best). A row whose
	// repaired chain price plus the tree lower bound already reaches the
	// best is one that test would reject, so it is not priced; a root
	// another row repaired onto is priced once (treeCost).
	var (
		bestState *state
		bestCost  = graph.Inf
		stats     StageStats
		lb        float64
		skips     int
	)
	if sw.kmb != nil {
		lb = sw.kmb.LowerBound() * (1 - boundSlack)
	}
	for _, c := range rows {
		// Anytime semantics: once a feasible solution is in hand, an
		// expired deadline stops the sweep; without one it keeps going,
		// so the solve fails only when no candidate is feasible.
		if bestState != nil && opts.ctxErr() != nil {
			stats.EarlyStop = true
			break
		}
		if c.Last == mod.NoChain {
			continue
		}
		stats.CandidatesTried++
		if c.Last == mod.NoRoom {
			continue
		}
		if c.Cost+lb >= bestCost {
			skips++
			continue
		}
		last := int(c.Last)
		treeCost, err := sw.treeCost(last)
		if err != nil {
			continue // some destination unreachable from this host
		}
		total := c.Cost + treeCost
		if total >= bestCost {
			continue
		}
		tree, err := sw.tree(last)
		if err != nil {
			continue
		}
		hosts, _ := sw.chain(int(c.Node))                        // the row says it repairs
		st, err := stateFromSolution(net, task, hosts, tree, sc) // copies hosts
		if err != nil {
			continue
		}
		bestCost = total
		bestState = st
		stats.LastHost = last
	}
	if bestState == nil {
		return nil, nil, fmt.Errorf("%w: no candidate last host admits a feasible solution", ErrNoFeasible)
	}
	stats.Stage1Cost = bestCost
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventSweepEnd, Candidates: stats.CandidatesTried, Duration: time.Since(t2),
			GeneralTrees: int(sw.generalTrees()), BoundSkips: skips, TreeBound: lb, RepeatRoots: sc.roots.repeats})
	}
	return bestState, &stats, nil
}

// boundSlack shrinks the tree lower bound by a relative margin far
// above the rounding that separates a Dist-based bound from an edge-sum
// tree price (≈1e-13 at a few hundred terms), so the skip never rejects
// a row the price itself would have let through.
const boundSlack = 1e-9

// sortCandidates orders c by ascending chain cost. The comparator
// looks at the cost alone — no tie-break, which would reorder equal
// keys: it is the strict < the reflection-based sort this replaced was
// given, and the two are one pdqsort, so the permutation is the one
// the sweep has always seen (TestCandidateOrderMatchesSortSlice).
func sortCandidates(c []mod.Candidate) {
	slices.SortFunc(c, func(a, b mod.Candidate) int {
		switch {
		case a.Cost < b.Cost:
			return -1
		case b.Cost < a.Cost:
			return 1
		}
		return 0
	})
}

// sweeper holds what one solve's stage one works with. It only reads
// the network, overlay, SFC solution and warm metric; what it owns is
// the scratch that makes a candidate cheap: the KMB sweep over the
// task's destinations, and in the solve's scratch the free-capacity
// vector, the chain buffer and the memos of relocation scans and tree
// prices, all set up once instead of per candidate.
type sweeper struct {
	net     *nfv.Network
	task    nfv.Task
	overlay *mod.Network
	sol     *mod.SFCSolution
	metric  *graph.Metric
	algo    SteinerAlgo
	kmb     *steiner.Sweep // nil unless algo is SteinerKMB and the sweep has begun
	sc      *scratch
	tabled  bool // this sweeper built the overlay's candidate table
}

func newSweeper(net *nfv.Network, task nfv.Task, overlay *mod.Network, algo SteinerAlgo, sc *scratch) *sweeper {
	sc.fillFree(net)
	sc.roots.reset(net.NumNodes())
	sc.relocs.reset()
	return &sweeper{net: net, task: task, overlay: overlay, sol: overlay.SolveSFC(), metric: net.Metric(), algo: algo, sc: sc}
}

// generalTrees reports how many of this sweeper's KMB trees needed
// the Kruskal-and-prune branch (see steiner.Sweep).
func (sw *sweeper) generalTrees() int64 {
	if sw.kmb == nil {
		return 0
	}
	return sw.kmb.Counters().GeneralTrees
}

// chain is the chain stage one embeds for candidate last-host w: the
// overlay's optimal chain ending at w, capacity repaired, in the
// scratch's buffer (valid until the next call). It is nil when no
// chain ends at w, and ok reports whether the repair found room.
func (sw *sweeper) chain(w int) (hosts []int, ok bool) {
	hosts = sw.sol.AppendHostsTo(sw.sc.hosts[:0], w)
	sw.sc.hosts = hosts
	if len(hosts) == 0 {
		return nil, false
	}
	return hosts, repairCapacity(sw.net, sw.metric, sw.task, hosts, sw.sc.free, &sw.sc.relocs)
}

// chainTable appends the overlay's candidate table (mod.Candidates) to
// rows: every server in ascending order of the cost of the optimal chain
// ending there, each with the verdict, last host and price of that
// chain once repaired. Source, chain and network state (topology,
// configuration, deployed set) decide all of it, so whichever solve
// builds it, the rows are the same.
func (sw *sweeper) chainTable(rows []mod.Candidate) []mod.Candidate {
	sw.tabled = true
	for _, v := range sw.net.ServerList() {
		rows = append(rows, mod.Candidate{Cost: sw.sol.CostTo(v), Node: int32(v)})
	}
	sortCandidates(rows)
	for i := range rows {
		c := &rows[i]
		switch hosts, ok := sw.chain(int(c.Node)); {
		case hosts == nil:
			c.Last = mod.NoChain
		case !ok:
			c.Last = mod.NoRoom
		default:
			c.Last, c.Cost = int32(hosts[len(hosts)-1]), sw.overlay.ChainCost(hosts)
		}
	}
	return rows
}

// treeCost is the cost of tree(root), priced once per root and solve:
// capacity repair moves several rows onto one last host, and a repeat
// is answered from the scratch's memo, unreachable destinations
// included.
func (sw *sweeper) treeCost(root int) (float64, error) {
	memo := &sw.sc.roots
	if memo.priced.has(root) {
		memo.repeats++
		if c := memo.cost[root]; c != graph.Inf {
			return c, nil
		}
		return 0, errUnreachableRoot
	}
	var cost float64
	var err error
	if sw.kmb != nil {
		cost, err = sw.kmb.Cost(root)
	} else {
		var tree steiner.Tree
		tree, err = sw.tree(root)
		cost = tree.Cost
	}
	memo.priced.add(root)
	memo.cost[root] = cost
	if err != nil {
		memo.cost[root] = graph.Inf
	}
	return cost, err
}

// errUnreachableRoot is treeCost's answer for a root whose tree an
// earlier call found no way to build.
var errUnreachableRoot = fmt.Errorf("%w from a root priced before", steiner.ErrUnreachable)

// tree connects root to the task's destinations with the solve's
// Steiner routine.
func (sw *sweeper) tree(root int) (steiner.Tree, error) {
	if sw.kmb != nil {
		return sw.kmb.Tree(root)
	}
	return buildSteiner(sw.net, sw.metric, root, sw.task.Destinations, sw.algo)
}

// BuildTails connects root to all destinations with the selected
// Steiner routine and returns the per-destination tree paths, the form
// OptimizeEmbedding consumes. Baseline strategies use it to finish
// their stage-one solutions the same way MSA does.
func BuildTails(net *nfv.Network, root int, dests []int, algo SteinerAlgo) ([][]int, float64, error) {
	tree, err := buildSteiner(net, net.Metric(), root, dests, algo)
	if err != nil {
		return nil, 0, err
	}
	paths, err := TailsFromEdges(net, root, dests, tree.Edges)
	if err != nil {
		return nil, 0, err
	}
	return paths, tree.Cost, nil
}

// buildSteiner connects root to all destinations with the selected
// Steiner routine.
func buildSteiner(net *nfv.Network, metric *graph.Metric, root int, dests []int, algo SteinerAlgo) (steiner.Tree, error) {
	if algo == SteinerTM {
		return steiner.TakahashiMatsuyama(net.Graph(), metric, root, dests)
	}
	return steiner.KMB(net.Graph(), metric, append([]int{root}, dests...))
}

// RepairChainHosts exposes the stage-one capacity-repair rule so that
// external reference solvers sweep candidate hosts under the same
// feasibility policy. It returns the repaired host sequence and
// whether a feasible placement exists.
func RepairChainHosts(net *nfv.Network, task nfv.Task, hosts []int) ([]int, bool) {
	sc := getScratch(net.NumNodes())
	sc.fillFree(net)
	out := append([]int(nil), hosts...)
	ok := repairCapacity(net, net.Metric(), task, out, sc.free, nil)
	scratchPool.Put(sc)
	if !ok {
		return nil, false
	}
	return out, true
}

// TailsFromEdges converts an explicit tree edge set into the
// per-destination root paths OptimizeEmbedding consumes.
func TailsFromEdges(net *nfv.Network, root int, dests []int, edges []int) ([][]int, error) {
	sc := getScratch(net.NumNodes())
	paths, err := treePaths(net.Graph(), steiner.Tree{Edges: edges}, root, dests, sc)
	var out [][]int // out of the scratch
	if err == nil {
		out = make([][]int, len(paths))
		for i, p := range paths {
			out[i] = slices.Clone(p)
		}
	}
	scratchPool.Put(sc)
	return out, err
}

// repairCapacity walks the chain hosts in out in order, reserving
// capacity for each new instance, and relocates any VNF whose host is
// full to the feasible node minimizing connection-plus-setup cost (the
// paper's adjustment rule), rewriting out. It reports failure when some
// VNF fits nowhere.
//
// free must hold net.FreeCapacity(v) at every server v (see
// scratch.fillFree) and does again on return: the walk decrements only
// entries of hosts it settles on, and those are re-read from the
// network on the way out — never restored by adding the demand back,
// which drifts by an ulp. memo, when not nil, serves repeated
// relocation scans (see relocMemo); it must have been reset since net
// last changed.
func repairCapacity(net *nfv.Network, metric *graph.Metric, task nfv.Task, out []int, free []float64, memo *relocMemo) bool {
	ok := repairInPlace(net, metric, task, out, free, memo)
	for _, h := range out {
		if net.IsServer(h) {
			free[h] = net.FreeCapacity(h)
		}
	}
	return ok
}

// repairInPlace is repairCapacity's walk: it rewrites out and leaves
// free decremented at the hosts it settled on.
func repairInPlace(net *nfv.Network, metric *graph.Metric, task nfv.Task, out []int, free []float64, memo *relocMemo) bool {
	k := len(out)
	for j := 0; j < k; j++ {
		f := task.Chain[j]
		h := out[j]
		vnf, err := net.VNF(f)
		if err != nil {
			return false
		}
		if net.IsDeployed(f, h) {
			continue // reuse, no capacity consumed
		}
		// The free vector is meaningful only at server indices; a
		// non-server host (possible via RepairChainHosts) has no
		// capacity and always relocates, as with the old map's zero.
		if net.IsServer(h) && free[h]+1e-9 >= vnf.Demand {
			free[h] -= vnf.Demand
			continue
		}
		// Relocate: choose the node minimizing link cost to both chain
		// neighbours plus setup cost, among nodes that can host f.
		r := relocation{pos: int32(j), prev: int32(task.Source), next: -1}
		if j > 0 {
			r.prev = int32(out[j-1])
		}
		if j+1 < k {
			r.next = int32(out[j+1])
		}
		best := memo.host(net, metric, r, f, vnf.Demand, free)
		if best == -1 {
			return false
		}
		out[j] = best
		if !net.IsDeployed(f, best) {
			free[best] -= vnf.Demand
		}
	}
	return true
}

// relocation is one relocation scan's question — chain position pos
// between hosts prev and next (-1 past the last position) — and, in a
// relocMemo, its answer host.
type relocation struct{ pos, prev, next, host int32 }

// relocate is the relocation scan: the first server, in ServerList
// order, of least dist(prev, u) + setup(f, u) + dist(u, next) among
// those that can host f with free room (nil: the network's own free
// capacity), or -1 when none can.
func relocate(net *nfv.Network, metric *graph.Metric, r relocation, f int, demand float64, free []float64) int {
	best, bestCost := -1, graph.Inf
	for _, u := range net.ServerList() {
		var room float64
		if free != nil {
			room = free[u]
		} else {
			room = net.FreeCapacity(u)
		}
		if !net.IsDeployed(f, u) && room+1e-9 < demand {
			continue
		}
		c := metric.Dist[r.prev][u] + net.SetupCost(f, u)
		if r.next >= 0 {
			c += metric.Dist[u][r.next]
		}
		if c < bestCost {
			best, bestCost = u, c
		}
	}
	return best
}

// maxRelocations bounds a relocMemo; a solve asks a handful of
// distinct questions, and past the bound it scans.
const maxRelocations = 32

// relocMemo remembers each relocation scan's answer against the
// network's own free capacity, for one solve. A chain walk asks with
// its own reservations taken off that capacity, and reservations only
// remove hosts: an answer that still has room is the first minimum of
// the smaller set too, and one that has not is scanned again
// (ALGORITHM.md, the capacity adjustment). The nil memo always scans.
type relocMemo struct {
	asked []relocation
	// scans counts relocation scans run, hits questions answered from
	// the memo, and fallbacks answers that had no room left.
	scans, hits, fallbacks int
}

func (m *relocMemo) reset() {
	m.asked = m.asked[:0]
	m.scans, m.hits, m.fallbacks = 0, 0, 0
}

// host answers relocation r for VNF f of the given demand under free.
func (m *relocMemo) host(net *nfv.Network, metric *graph.Metric, r relocation, f int, demand float64, free []float64) int {
	if m == nil {
		return relocate(net, metric, r, f, demand, free)
	}
	i := slices.IndexFunc(m.asked, func(q relocation) bool { return q.pos == r.pos && q.prev == r.prev && q.next == r.next })
	switch {
	case i >= 0:
		m.hits++
		r.host = m.asked[i].host
	case len(m.asked) < maxRelocations:
		m.scans++
		r.host = int32(relocate(net, metric, r, f, demand, nil))
		m.asked = append(m.asked, r)
	default:
		m.scans++
		return relocate(net, metric, r, f, demand, free)
	}
	if h := int(r.host); h < 0 || net.IsDeployed(f, h) || free[h]+1e-9 >= demand {
		return h
	}
	m.fallbacks++
	m.scans++
	return relocate(net, metric, r, f, demand, free)
}

// stateFromSolution assembles the stage-one state: every destination
// is served by the single chain host sequence, and tails follow the
// Steiner tree from the last host.
func stateFromSolution(net *nfv.Network, task nfv.Task, hosts []int, tree steiner.Tree, sc *scratch) (*state, error) {
	paths, err := treePaths(net.Graph(), tree, hosts[len(hosts)-1], task.Destinations, sc)
	if err != nil {
		return nil, err
	}
	s := newState(net, task, sc)
	s.tail = paths
	for di := range task.Destinations {
		copy(s.row(di)[1:], hosts)
	}
	return s, nil
}

// treePaths returns, for each destination, the unique path from root
// to it along the tree's edges. The paths lie end to end in one
// array, each cut to its own capacity so that appending to one copies
// it instead of running into the next. Both live in the scratch
// (paths, pathNodes) and are valid until the next call, which
// overwrites them only when it succeeds.
func treePaths(g *graph.Graph, tree steiner.Tree, root int, dests []int, sc *scratch) ([][]int, error) {
	if cap(sc.to) < 2*len(tree.Edges) {
		sc.to = make([]int32, 0, 2*len(tree.Edges))
		sc.next = make([]int32, 0, 2*len(tree.Edges))
	}
	sc.to, sc.next = sc.to[:0], sc.next[:0]
	head, tail, parent := sc.head, sc.tail, sc.parent

	// Per-node adjacency as linked arc lists in tree.Edges order, which
	// fixes the traversal (and so the parents) should the edge set
	// contain a cycle.
	link := func(u, v int) {
		a := int32(len(sc.to))
		sc.to = append(sc.to, int32(v))
		sc.next = append(sc.next, -1)
		if head[u] < 0 {
			head[u] = a
		} else {
			sc.next[tail[u]] = a
		}
		tail[u] = a
	}
	for _, id := range tree.Edges {
		e := g.Edge(id)
		link(e.U, e.V)
		link(e.V, e.U)
	}
	parent[root] = -1
	stack := append(sc.stack[:0], int32(root))
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := head[u]; a >= 0; a = sc.next[a] {
			if v := sc.to[a]; parent[v] == unseen {
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	sc.stack = stack

	var out [][]int
	var err error
	total := 0
	for _, d := range dests {
		if parent[d] == unseen {
			err = fmt.Errorf("%w: destination %d not in the Steiner tree", ErrNoFeasible, d)
			break
		}
		for x := int32(d); x != -1; x = parent[x] {
			total++
		}
	}
	if err == nil {
		out = resize(sc.paths, len(dests))
		nodes := resize(sc.pathNodes, total)
		sc.paths, sc.pathNodes = out, nodes
		for i := len(dests) - 1; i >= 0; i-- { // each path is written leaf to root
			end := total
			for x := int32(dests[i]); x != -1; x = parent[x] {
				total--
				nodes[total] = int(x)
			}
			out[i] = nodes[total:end:end]
		}
	}

	// Restore the node-indexed arrays at the entries this call touched.
	for _, id := range tree.Edges {
		e := g.Edge(id)
		head[e.U], head[e.V] = -1, -1
		parent[e.U], parent[e.V] = unseen, unseen
	}
	parent[root] = unseen
	return out, err
}

// unseen marks a node the tree traversal has not reached; the root's
// parent is -1.
const unseen = -2
