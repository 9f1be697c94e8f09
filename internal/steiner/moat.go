package steiner

import (
	"math"

	"sftree/internal/graph"
)

// moats is the price of a dual solution of the bidirected cut
// relaxation of a tree spanning D, rooted at dests[0]. Orient such a
// tree away from the root: every node set that holds a destination but
// not the root has an arc of it entering. So any prices y(S) >= 0 on
// those sets that charge no arc more than its cost — the sum of y(S)
// over the sets an arc enters at most the arc's cost — sum to no more
// than the tree (weak duality), whatever the tree's root.
//
// The sets are moats grown on the metric, as in Goemans and
// Williamson's primal-dual method: every destination but the root
// starts a moat of radius 0, and the growing moats widen together at
// unit rate, each paying 1 per unit of time for the set it covers, the
// nodes v with Dist[b][v] < r(b) for one of its centres b. The root
// never grows. Moats keep their node sets disjoint: two growing moats
// that are about to share a node merge into one growing moat; a moat
// about to take in the root, or a node of a moat that has stopped,
// stops (merging with the stopped one). It ends when every moat has
// stopped, and returns the total paid.
//
// Why no arc is overcharged: only the moat holding its head charges an
// arc u -> x, while u is outside it, at the rate the moat widens. Let
// f(v) be min over the moat's centres b of Dist[b][v] - r(b). x joined
// at f(x) <= 0; widening lowers f by what it charges, and merging can
// only lower it, so f(x) <= -charge. u is outside: f(u) >= 0. The
// metric's triangle inequality gives f(u) <= f(x) + cost(u, x), hence
// charge <= cost. A node is in at most one moat, so that moat is the
// only one charging the arc.
//
// All event times are distances read off the metric, or minima and
// maxima of them: no search runs. Two growing moats meet at the first
// time some node is within both, min over v of max(Dist[a][v],
// Dist[b][v]) for centres a and b, and a growing centre a reaches a
// stopped centre b of radius r at min of Dist[a][v] over b's nodes v.
// Each pair is read once, and only when the lower bound that the
// triangle inequality gives (half their distance, or their distance
// less r) is below the next event found so far.
func (s *Sweep) moats() float64 {
	ws, td := s.ws, len(s.dests)
	dist, root := s.m.Dist, s.dests[0]
	mo := &ws.moats
	mo.reset(td)
	now, paid := 0.0, 0.0
	for len(mo.grow) > 0 {
		next, a, b := graph.Inf, int32(0), int32(0) // b == 0: a's moat takes in the root
		for _, i := range mo.grow {
			if t := dist[s.dests[i]][root]; t < next {
				next, a = t, i
			}
		}
		for p, i := range mo.grow {
			di := dist[s.dests[i]]
			for _, j := range mo.grow[p+1:] {
				if mo.moat[i] == mo.moat[j] {
					continue
				}
				at := int(min(i, j))*td + int(max(i, j))
				t := mo.meets[at]
				if t != t { // NaN: not read yet
					if math.Float64frombits(min(ws.dd[int(i)*td+int(j)], ws.dd[int(j)*td+int(i)]))/2 >= next {
						continue
					}
					t = meet(di, dist[s.dests[j]])
					mo.meets[at] = t
				}
				if t < next {
					next, a, b = t, i, j
				}
			}
			for _, j := range mo.halt {
				at := int(i)*td + int(j)
				t := mo.reaches[at]
				if t != t { // NaN: not read yet
					lo := math.Float64frombits(min(ws.dd[at], ws.dd[int(j)*td+int(i)])) - mo.stop[j]
					if lo >= next {
						continue
					}
					t = reach(di, dist[s.dests[j]], mo.stop[j])
					mo.reaches[at] = t
				}
				if t < next {
					next, a, b = t, i, j
				}
			}
		}
		if next == graph.Inf {
			return graph.Inf // a moat that can never stop: the root is out of reach
		}
		next = max(next, now)
		paid += (next - now) * float64(mo.moats)
		now = next
		mo.event(a, b, now)
	}
	return paid
}

// moatState is the pooled state of Sweep.moats over td destinations,
// each named by its index in dests.
type moatState struct {
	// moat[i] names the moat of destination i by one of its members;
	// moats counts the growing moats.
	moat  []int32
	moats int
	// grow lists the destinations of growing moats, halt those of
	// stopped ones, and stop[i] is the radius at which i's moat stopped.
	grow, halt []int32
	stop       []float64
	// meets[i*td+j] (i < j) is when i and j meet while both grow, and
	// reaches[i*td+j] when growing i reaches stopped j; NaN until read.
	meets, reaches []float64
}

func (mo *moatState) reset(td int) {
	if cap(mo.moat) < td {
		mo.moat, mo.stop = make([]int32, td), make([]float64, td)
		mo.grow, mo.halt = make([]int32, 0, td), make([]int32, 0, td)
		mo.meets, mo.reaches = make([]float64, td*td), make([]float64, td*td)
	}
	mo.moat, mo.stop = mo.moat[:td], mo.stop[:td]
	mo.grow, mo.halt = mo.grow[:0], mo.halt[:0]
	mo.meets, mo.reaches = mo.meets[:td*td], mo.reaches[:td*td]
	for i := range mo.moat {
		mo.moat[i], mo.stop[i] = int32(i), graph.Inf
		if i > 0 {
			mo.grow = append(mo.grow, int32(i))
		}
	}
	for i := range mo.meets {
		mo.meets[i], mo.reaches[i] = math.NaN(), math.NaN()
	}
	mo.moats = td - 1
}

// event applies what happens at time now: a's moat takes in the root
// (b == 0), merges with growing b's, or stops against stopped b's.
func (mo *moatState) event(a, b int32, now float64) {
	from, into := mo.moat[a], mo.moat[a]
	if b != 0 {
		into = mo.moat[b]
	}
	mo.moats--
	halts := b == 0 || mo.stop[b] != graph.Inf
	grow := mo.grow[:0]
	for _, i := range mo.grow {
		if mo.moat[i] == from {
			mo.moat[i] = into
		}
		if halts && mo.moat[i] == into {
			mo.stop[i] = now
			mo.halt = append(mo.halt, i)
			continue
		}
		grow = append(grow, i)
	}
	mo.grow = grow
}

// meet is min over v of max(a[v], b[v]): the first radius at which the
// balls around the two rows' sources share a node. Four running minima
// keep the loop from waiting on one compare chain.
func meet(a, b []float64) float64 {
	b = b[:len(a)]
	m0, m1, m2, m3 := uint64(infKey), uint64(infKey), uint64(infKey), uint64(infKey)
	v := 0
	for ; v+4 <= len(a); v += 4 {
		m0 = min(m0, max(key(a[v]), key(b[v])))
		m1 = min(m1, max(key(a[v+1]), key(b[v+1])))
		m2 = min(m2, max(key(a[v+2]), key(b[v+2])))
		m3 = min(m3, max(key(a[v+3]), key(b[v+3])))
	}
	for ; v < len(a); v++ {
		m0 = min(m0, max(key(a[v]), key(b[v])))
	}
	return math.Float64frombits(min(m0, m1, m2, m3))
}

// reach is min of a[v] over the nodes v with b[v] < r: the first
// radius at which the ball around a's source takes in a node of the
// ball of radius r around b's.
func reach(a, b []float64, r float64) float64 {
	b = b[:len(a)]
	m, kr := uint64(infKey), key(r)
	for v, d := range a {
		k := key(d)
		if key(b[v]) >= kr {
			k = infKey
		}
		m = min(m, k)
	}
	return math.Float64frombits(m)
}
