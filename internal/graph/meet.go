package graph

import (
	"math"
	"sync/atomic"
)

// meetRow is one row of a metric's meeting table: for the pair a < b,
// cell b-a-1 of row a holds 1 + the pair's meeting node, 0 until the
// pair is first asked for.
type meetRow []atomic.Int32

// Meet is min over v of max(Dist[a][v], Dist[b][v]): the first radius
// at which the balls of that radius around a and b share a node, +Inf
// when the two are disconnected. It is symmetric in a and b.
//
// It depends only on the metric and the unordered pair, so the metric
// keeps it for every solve that reads it: the first call for a pair
// scans the two rows and stores the lowest node attaining the minimum
// as an int32; every later call re-derives the value from that node,
// max(Dist[a][v], Dist[b][v]), the very max the scan took. Row a
// (cells for b > a) is allocated when one of its pairs is first asked
// for, and rows and cells are read and written atomically, so solvers
// sharing the metric may call Meet at once: two that fill one cell
// together store the same node. The table never exceeds n(n-1)/2
// cells of 4 bytes, a quarter of Dist's bytes, plus n row pointers.
func (m *Metric) Meet(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	row := m.meet[a].Load()
	if row == nil {
		fresh := make(meetRow, len(m.Dist)-1-a)
		row = &fresh
		if !m.meet[a].CompareAndSwap(nil, row) {
			row = m.meet[a].Load()
		}
	}
	cell := &(*row)[b-a-1]
	v := cell.Load() - 1
	if v < 0 {
		v = meetNode(m.Dist[a], m.Dist[b])
		cell.Store(v + 1)
	}
	return max(m.Dist[a][v], m.Dist[b][v])
}

// meetNode is the lowest v minimising max(a[v], b[v]), compared as
// bit patterns with the sign cleared: distances are non-negative, and
// non-negative doubles, +Inf included, order as their bits do.
func meetNode(a, b []float64) int32 {
	b = b[:len(a)]
	best, at := uint64(math.MaxUint64), 0
	for v, d := range a {
		k := max(math.Float64bits(d), math.Float64bits(b[v])) &^ (1 << 63)
		if k < best {
			best, at = k, v
		}
	}
	return int32(at)
}
