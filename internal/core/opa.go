package core

import (
	"slices"
	"sort"
	"time"

	"sftree/internal/graph"
)

const costEps = 1e-9

// runOPA repeats runOPAPass until a pass accepts nothing — the
// paper's "repeat the above procedures until one VNF cannot be
// deployed on multiple nodes" (Alg. 3). That ends: every accepted move
// passes the global gate and lowers s.price, which is never negative,
// by more than costEps, so a solve accepts fewer than
// Stage1Cost/costEps moves. The boolean reports a deadline stop: the
// context on Options expired and the sweep ended with the state as-is
// (every prefix of accepted moves is a valid solution, so stopping
// between passes or levels loses nothing but optimization).
func runOPA(s *state, opts Options) (int, bool, error) {
	total := 0
	for pass := 1; ; pass++ {
		if opts.ctxErr() != nil {
			return total, true, nil
		}
		t0 := opts.now()
		opts.emit(Event{Kind: EventOPAPassStart, Pass: pass})
		moves, stopped, err := runOPAPass(s, opts, pass)
		total += moves
		if opts.Observer != nil {
			opts.emit(Event{Kind: EventOPAPassEnd, Pass: pass, Moves: moves, Duration: time.Since(t0)})
		}
		if err != nil || stopped || moves == 0 {
			return total, stopped, err
		}
	}
}

// runOPAPass implements Algorithm 3: starting from the stage-one state,
// add new VNF instances in inverted chain order (Theorem 4) wherever a
// connection node can be re-homed more cheaply. Move candidates follow
// the paper's local rule c(x,E) + c(E,pred) + gamma < c(x,cur); moves
// are accepted only if the recomputed global cost strictly drops.
// It returns the number of accepted moves and whether a deadline poll
// cut the pass short. The pass number is only for the optional
// Observer's events.
//
// A trial move is priced the way a solve is: applyMove, materialise
// the embedding, nfv.Cost. A rejected move is undone (undoMove); an
// accepted one becomes the state's price and placed list.
func runOPAPass(s *state, opts Options, passNo int) (int, bool, error) {
	k := s.task.K()
	metric := s.net.Metric()
	s.listPlaced()

	// Connection groups for the level-k round: per root-to-leaf path of
	// the stage-one Steiner tree, the destination nearest the root,
	// together with every destination downstream. The paper's rule
	// re-homes only the groups of independent paths, and filtered says
	// whether that filter has run: it runs only once a group has a host
	// to propose.
	groups := s.initialConnectionGroups()
	filtered := false
	moves := 0

	for j := k; j >= 1; j-- {
		if opts.ctxErr() != nil {
			return moves, true, nil // deadline: the current state is valid as-is
		}
		f := s.task.Chain[j-1]
		if _, err := s.net.VNF(f); err != nil {
			return moves, false, err
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

			// Find the best alternative host E by the local rule. The bar
			// a host must beat starts at the paper's local gate,
			// curScore-costEps; aggressive mode defers entirely to the
			// global acceptance check below. Setup costs are >= 0 and
			// rounding is monotone, so the partial sum c(x,E) + c(E,pred)
			// bounds the score from below: a server whose partial sum
			// does not clear the bar (+Inf for an unreachable one) is
			// skipped before canHost is asked.
			bestE, bestScore := -1, graph.Inf
			if !opts.AggressiveOPA {
				bestScore = curScore - costEps
			}
			for _, u := range s.net.ServerList() {
				if u == cur {
					continue
				}
				partial := metric.Dist[grp.node][u] + metric.Dist[u][pred]
				if partial >= bestScore {
					continue
				}
				s.probes++
				if !s.canHost(f, u) {
					continue
				}
				if score := partial + s.instanceSetupCost(f, u); score < bestScore {
					bestE, bestScore = u, score
				}
			}
			if bestE == -1 {
				continue
			}
			if j == k && !opts.AggressiveOPA {
				if !filtered {
					// No move has been applied yet, so the state is still
					// the one the groups were built from.
					s.markIndependent()
					filtered = true
				}
				if !s.sc.indep.has(grp.node) {
					continue
				}
			}

			ev := Event{Kind: EventMoveProposed, Pass: passNo, Level: j, Conn: grp.node,
				From: cur, To: bestE, Group: len(grp.members), CostBefore: s.price}
			opts.emit(ev)
			s.applyMove(j, grp, bestE, metric)
			var trialCost float64
			emb, err := s.embedding()
			if err == nil {
				trialCost = s.sc.price(s.net, emb)
			}
			ev.CostAfter = trialCost
			if err != nil || trialCost >= s.price-costEps {
				s.undoMove()
				ev.Kind = EventMoveRejected
				opts.emit(ev)
				continue
			}
			ev.Kind = EventMoveAccepted
			opts.emit(ev)
			s.price = trialCost
			s.listPlaced()
			moves++
			nextConn = append(nextConn, bestE)
		}
		if len(nextConn) == 0 {
			break // Theorem 4: earlier levels cannot branch either
		}
		groups = s.groupsAt(j, nextConn)
	}
	return moves, false, nil
}

// connGroup is one re-homing opportunity: a connection node plus the
// destination indices that route through it.
type connGroup struct {
	node    int   // the connection node (a destination for level k, an instance node below)
	members []int // destination indices re-homed together
}

// initialConnectionGroups returns the level-k round's connection
// groups, one per connection node, ordered by node: the first
// destination after the root on some destination's tail (the tail
// forest's paths from the last instance), owning every destination
// whose tail passes through it. Treating every tail as a root-to-leaf
// path finds the same connection nodes as walking the forest's leaves.
// The paper keeps only the groups of independent paths; that filter is
// markIndependent's, run only once a group has a host to propose.
func (s *state) initialConnectionGroups() []connGroup {
	sc := s.sc
	isDest, conns := &sc.dests, &sc.conns
	isDest.reset(s.net.NumNodes())
	conns.reset(s.net.NumNodes())
	for _, d := range s.task.Destinations {
		isDest.add(d)
	}
	for _, tail := range s.tail {
		if conn := s.connOf(tail); conn != -1 {
			conns.add(conn)
		}
	}

	// One pass over the tails: every (connection node, destination) pair
	// a tail passes, sorted and made distinct (a tail re-homed by an
	// earlier pass may visit a node twice), then cut into groups, nodes
	// ascending and destination indices ascending within a group, their
	// members carved from one buffer.
	pairs := sc.pairs[:0]
	for di, tail := range s.tail {
		for _, v := range tail {
			if conns.has(v) {
				pairs = append(pairs, uint64(v)<<32|uint64(di))
			}
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	groups, members := sc.groups[:0], resize(sc.members, len(pairs))
	for start, end := 0, 0; start < len(pairs); start = end {
		node := pairs[start] >> 32
		for end = start; end < len(pairs) && pairs[end]>>32 == node; end++ {
			members[end] = int(uint32(pairs[end]))
		}
		groups = append(groups, connGroup{node: int(node), members: members[start:end:end]})
	}
	sc.pairs, sc.groups, sc.members = pairs, groups, members
	return groups
}

// connOf is tail's connection node: its first destination after the
// root, or -1. isDest must hold the task's destinations.
func (s *state) connOf(tail []int) int {
	for _, v := range tail[1:] {
		if s.sc.dests.has(v) {
			return v
		}
	}
	return -1
}

// markIndependent fills sc.indep with the connection nodes the paper's
// rule may re-home: those of a tail that shares no physical edge with
// the embedded SFC (levels < k). It reads the tails and rows as they
// stand, so runOPAPass calls it before the pass applies any move, and
// initialConnectionGroups must have filled isDest for this pass.
func (s *state) markIndependent() {
	k, sc := s.task.K(), s.sc
	indep, sfcArcs := &sc.indep, &sc.sfcArcs
	indep.reset(s.net.NumNodes())
	// Physical edges used by the SFC part of the walks, each marked at
	// the arc that prices its low-to-high direction.
	csr := s.net.Graph().CSR()
	metric := s.net.Metric()
	sfcArcs.reset(csr.NumArcs())
	for di := range s.tail {
		row := s.row(di)
		for j := 0; j < k; j++ {
			if s.repeatsSegment(di, j) {
				continue
			}
			metric.EachHop(row[j], row[j+1], func(x, y int) {
				if arc := csr.Arc(min(x, y), max(x, y)); arc >= 0 {
					sfcArcs.add(int(arc))
				}
			})
		}
	}
	for _, tail := range s.tail {
		conn := s.connOf(tail)
		if conn == -1 || indep.has(conn) {
			continue
		}
		dependent := false
		for i := 1; i < len(tail); i++ {
			if arc := csr.Arc(min(tail[i-1], tail[i]), max(tail[i-1], tail[i])); arc >= 0 && sfcArcs.has(int(arc)) {
				dependent = true
				break
			}
		}
		if !dependent {
			indep.add(conn)
		}
	}
}

// groupsAt returns the connection groups for level j: one group per
// distinct node in conn, containing the destinations it serves at
// level j+1.
func (s *state) groupsAt(j int, conn []int) []connGroup {
	sort.Ints(conn)
	var groups []connGroup
	for i, e := range conn {
		if i > 0 && conn[i-1] == e {
			continue
		}
		var members []int
		for di := range s.tail {
			if s.row(di)[j] == e {
				members = append(members, di)
			}
		}
		if len(members) > 0 {
			groups = append(groups, connGroup{node: e, members: members})
		}
	}
	return groups
}

// instanceSetupCost prices a new instance of f at u for the local
// rule: zero when deployed or already placed in the current state.
func (s *state) instanceSetupCost(f, u int) float64 {
	if s.net.IsDeployed(f, u) {
		return 0
	}
	if placed, _ := s.hosted(f, u); placed {
		return 0
	}
	return s.net.SetupCost(f, u)
}
