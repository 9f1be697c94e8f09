package core

import (
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

	// Connection groups for the level-k round: per independent
	// root-to-leaf path of the stage-one Steiner tree, the destination
	// nearest the root, together with every destination downstream.
	groups := s.initialConnectionGroups(opts.AggressiveOPA)
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

			// Find the best alternative host E by the local rule.
			bestE, bestScore := -1, graph.Inf
			for _, u := range s.net.ServerList() {
				if u == cur {
					continue
				}
				if metric.Dist[grp.node][u] == graph.Inf || metric.Dist[u][pred] == graph.Inf {
					continue
				}
				if !s.canHost(f, u) {
					continue
				}
				score := metric.Dist[grp.node][u] + metric.Dist[u][pred] + s.instanceSetupCost(f, u)
				if score < bestScore {
					bestE, bestScore = u, score
				}
			}
			if bestE == -1 {
				continue
			}
			// The paper's local gate; aggressive mode defers entirely to
			// the global acceptance check below.
			if !opts.AggressiveOPA && bestScore >= curScore-costEps {
				continue
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

// initialConnectionGroups decomposes the stage-one Steiner tree into
// root-to-leaf paths, discards the dependent ones (those sharing a
// physical edge with the embedded SFC) unless aggressive mode keeps
// them, and returns one group per connection node: the destination
// nearest the root on a kept path, owning every destination whose
// tail passes through it.
func (s *state) initialConnectionGroups(aggressive bool) []connGroup {
	k, sc := s.task.K(), s.sc
	isDest, seen, sfcArcs := &sc.dests, &sc.conns, &sc.sfcArcs
	isDest.reset(s.net.NumNodes())
	seen.reset(s.net.NumNodes())
	for _, d := range s.task.Destinations {
		isDest.add(d)
	}
	// Physical edges used by the SFC part of the walks (levels < k),
	// each marked at the arc that prices its low-to-high direction.
	csr := s.net.Graph().CSR()
	if !aggressive {
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
	}

	// Leaves of the tail forest: destinations whose tail is not a
	// proper prefix of another tail. Simpler: a node is a leaf if no
	// other tail extends beyond it; we just treat every destination's
	// tail as a root-to-leaf candidate, which is equivalent for
	// connection-node discovery.
	var groups []connGroup
	for di := range s.tail {
		tail := s.tail[di]
		// Independence: the whole root-to-leaf path must avoid SFC edges.
		if !aggressive {
			dependent := false
			for i := 1; i < len(tail); i++ {
				if arc := csr.Arc(min(tail[i-1], tail[i]), max(tail[i-1], tail[i])); arc >= 0 && sfcArcs.has(int(arc)) {
					dependent = true
					break
				}
			}
			if dependent {
				continue
			}
		}
		// Connection node: first destination on the tail after the root.
		conn := -1
		for _, v := range tail[1:] {
			if isDest.has(v) {
				conn = v
				break
			}
		}
		if conn == -1 || seen.has(conn) {
			continue
		}
		seen.add(conn)
		groups = append(groups, connGroup{node: conn, members: s.destsThrough(conn)})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].node < groups[b].node })
	return groups
}

// destsThrough returns the indices of destinations whose tail passes
// through node x.
func (s *state) destsThrough(x int) []int {
	var out []int
	for di, tail := range s.tail {
		for _, v := range tail {
			if v == x {
				out = append(out, di)
				break
			}
		}
	}
	return out
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
