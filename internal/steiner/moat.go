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
// Dist[b][v]) for centres a and b (graph.Metric.Meet, which the metric
// keeps for every solve on it), and a growing centre a reaches a
// stopped centre b of radius r at min of Dist[a][v] over b's nodes v.
//
// The scan order decides ties: first each growing centre's root event,
// by index; then, for each growing i in ascending order, its pairs
// (i, j > i) and then its reaches (i, j) in the order j stopped. A root
// or pair time does not change while its moats grow, so those events
// are listed once, sorted by (time, scan rank), and each event takes
// the first entry that can still happen: its centre still grows, or
// its two centres grow in different moats. Neither holds again once
// lost, so a head pointer passes the dead entries and never goes back.
// A reach depends on when b stopped, so the reaches are scanned at each
// event, each pair read once and only when the triangle bound (their
// distance less r) does not rule it out against the list's pick.
func (s *Sweep) moats() float64 {
	ws, td := s.ws, len(s.dests)
	dist, root := s.m.Dist, s.dests[0]
	mo := &ws.moats
	mo.reset(td)
	ev := mo.events[:0]
	for i := 1; i < td; i++ {
		ev = append(ev, moatEvent{key: key(dist[s.dests[i]][root]), rank: int32(i)})
	}
	for i := 1; i < td; i++ {
		for j := i + 1; j < td; j++ {
			ev = append(ev, moatEvent{key: key(s.m.Meet(s.dests[i], s.dests[j])), rank: int32(i*td + j)})
		}
	}
	sortEvents(ev)
	mo.events = ev
	head, now, paid := 0, 0.0, 0.0
	for len(mo.grow) > 0 {
		next, a, b := graph.Inf, int32(0), int32(0) // b == 0: a's moat takes in the root
		for ; head < len(ev); head++ {
			i, j := ev[head].rank, int32(0)
			if i >= int32(td) {
				i, j = i/int32(td), i%int32(td)
			}
			if mo.stop[i] == graph.Inf && (j == 0 || mo.stop[j] == graph.Inf && mo.moat[i] != mo.moat[j]) {
				next, a, b = math.Float64frombits(ev[head].key), i, j
				break
			}
		}
		// The reaches of a growing i < before precede the pick in scan
		// order and win a tie with it; the others must beat it.
		before := int32(0)
		if b != 0 {
			before = a
		}
		for _, i := range mo.grow {
			tie := i < before
			di := dist[s.dests[i]]
			for _, j := range mo.halt {
				at := int(i)*td + int(j)
				t := mo.reaches[at]
				if t != t { // NaN: not read yet
					lo := math.Float64frombits(min(ws.dd[at], ws.dd[int(j)*td+int(i)])) - mo.stop[j]
					if lo > next || lo == next && !tie {
						continue
					}
					t = reach(di, dist[s.dests[j]], mo.stop[j])
					mo.reaches[at] = t
				}
				if t < next || t == next && tie {
					next, a, b = t, i, j
					before, tie = 0, false
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

// moatEvent is a root or pair event of Sweep.moats: the key of its
// time and its rank in the scan order, i for i's root event and
// i*td + j for the pair i < j (i >= 1, so every pair ranks after every
// root).
type moatEvent struct {
	key  uint64
	rank int32
}

func (x moatEvent) less(y moatEvent) bool {
	return x.key < y.key || x.key == y.key && x.rank < y.rank
}

// sortEvents sorts ev by (key, rank), no two of which are equal: an
// insertion sort on short runs, a quicksort on the median of three
// above, recursing into the shorter side.
func sortEvents(ev []moatEvent) {
	for len(ev) > 12 {
		n, m := len(ev)-1, len(ev)/2
		if ev[m].less(ev[0]) {
			ev[0], ev[m] = ev[m], ev[0]
		}
		if ev[n].less(ev[0]) {
			ev[0], ev[n] = ev[n], ev[0]
		}
		if ev[m].less(ev[n]) {
			ev[m], ev[n] = ev[n], ev[m]
		}
		p := 0
		for i := range ev[:n] {
			if ev[i].less(ev[n]) {
				ev[i], ev[p] = ev[p], ev[i]
				p++
			}
		}
		ev[p], ev[n] = ev[n], ev[p]
		if p < n-p {
			sortEvents(ev[:p])
			ev = ev[p+1:]
		} else {
			sortEvents(ev[p+1:])
			ev = ev[:p]
		}
	}
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].less(ev[j-1]); j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
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
	// reaches[i*td+j] is when growing i reaches stopped j, NaN until
	// read; events is the sorted list of root and pair events.
	reaches []float64
	events  []moatEvent
}

func (mo *moatState) reset(td int) {
	if cap(mo.moat) < td {
		mo.moat, mo.stop = make([]int32, td), make([]float64, td)
		mo.grow, mo.halt = make([]int32, 0, td), make([]int32, 0, td)
		mo.reaches = make([]float64, td*td)
	}
	mo.moat, mo.stop = mo.moat[:td], mo.stop[:td]
	mo.grow, mo.halt = mo.grow[:0], mo.halt[:0]
	mo.reaches = mo.reaches[:td*td]
	for i := range mo.moat {
		mo.moat[i], mo.stop[i] = int32(i), graph.Inf
		if i > 0 {
			mo.grow = append(mo.grow, int32(i))
		}
	}
	for i := range mo.reaches {
		mo.reaches[i] = math.NaN()
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
