package steiner

import (
	"math"
	"math/rand"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
)

// moatsRescan is Sweep.moats as it was before the event list: after
// every event it rescans every pair of growing moats, reading each
// pair's meeting time once per solve (meets, NaN until read) and only
// when the triangle bound is below the next event found so far. It is
// the reference the event list must equal bit for bit.
func (s *Sweep) moatsRescan() float64 {
	ws, td := s.ws, len(s.dests)
	dist, root := s.m.Dist, s.dests[0]
	mo := &ws.moats
	mo.reset(td)
	meets := make([]float64, td*td)
	for i := range meets {
		meets[i] = math.NaN()
	}
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
				t := meets[at]
				if t != t { // NaN: not read yet
					if math.Float64frombits(min(ws.dd[int(i)*td+int(j)], ws.dd[int(j)*td+int(i)]))/2 >= next {
						continue
					}
					t = meet(di, dist[s.dests[j]])
					meets[at] = t
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

// lowerBoundRescan is LowerBound with moatsRescan in place of moats.
func (s *Sweep) lowerBoundRescan() float64 {
	lb := s.spanBound()
	switch {
	case len(s.dests) < 3 || lb == 0 || lb == graph.Inf:
		return lb
	case len(s.dests) == 3:
		return max(lb, s.star())
	}
	return max(lb, s.moatsRescan())
}

// checkMoatsMatchRescan holds one sweep's moats and LowerBound to the
// rescan's, bit for bit, and reports whether the moats ran.
func checkMoatsMatchRescan(t testing.TB, s *Sweep) bool {
	t.Helper()
	lb, ref := s.LowerBound(), s.lowerBoundRescan()
	if math.Float64bits(lb) != math.Float64bits(ref) {
		t.Fatalf("dests %v: LowerBound %v, the rescan's %v", s.dests, lb, ref)
	}
	if len(s.dests) < 4 {
		return false
	}
	if got, want := s.moats(), s.moatsRescan(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("dests %v: moats %v, the rescan's %v", s.dests, got, want)
	}
	return true
}

// TestMoatsMatchRescan: the event list picks every event the rescan
// picks, ties included, so every bound is the same bits. Paper networks
// of 20 to 180 nodes with 4 to 20 destinations, and random graphs under
// the four cost modes, whose {0,1} and unit costs tie event times
// everywhere (and at 0). One metric serves many destination sets, so
// the later ones read meeting times an earlier sweep stored.
func TestMoatsMatchRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	bounds := 0
	for n := 20; n <= 180; n += 20 {
		net, err := netgen.Generate(netgen.PaperConfig(n, 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		g, m := net.Graph(), net.Metric()
		for draw := 0; draw < 200; draw++ {
			s := NewSweep(g, m, rng.Perm(n)[:4+rng.Intn(17)])
			if checkMoatsMatchRescan(t, s) {
				bounds++
			}
			s.Close()
		}
	}
	for trial := 0; trial < 160; trial++ {
		n := 8 + rng.Intn(40)
		g := randomGraphWithCosts(rng, n, rng.Intn(2*n), costModes[trial%len(costModes)])
		m := g.APSP()
		for draw := 0; draw < 20; draw++ {
			d := make([]int, 4+rng.Intn(17))
			for i := range d {
				d[i] = rng.Intn(n)
			}
			s := NewSweep(g, m, d)
			if checkMoatsMatchRescan(t, s) {
				bounds++
			}
			s.Close()
		}
	}
	t.Logf("%d moat bounds equal to the rescan's", bounds)
	if bounds < 4000 {
		t.Fatalf("only %d sweeps ran the moats, want at least 4000", bounds)
	}
}
