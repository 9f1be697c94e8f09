package main

import (
	"container/heap"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The reference clock.
//
// The machine changes speed under the benchmark. With nothing else
// running, the same solve took 4.2 ms and, minutes later, 7.8 ms; the
// slow spells last from a second to a quarter of an hour, show no steal
// time, leave a register-only loop almost untouched and slow code that
// allocates and walks memory by up to 1.8x. The disk does the same on
// its own schedule (fsync 120 us to 2 ms). Ten runs of one commit taken
// across such a spell spread by a third of their median, so a wall-clock
// bound cannot tell a change from the weather.
//
// So the benchmark carries its own yardstick: a fixed piece of work of
// the same character as the program's — shortest-path trees on a fixed
// random graph, allocating as they go, and for the durable workload an
// fsync'd append after every few trees, the way a manager with a WAL
// computes and then syncs. A window is cut into slices with a reading
// of the yardstick on either side of each; a slice's speed is the
// reference machine's time for the yardstick over the time just
// measured, and every end-to-end time is reported in reference time:
// measured time x speed. A machine at half speed reads 0.5, the
// operations took twice as long, and the product says what they would
// have taken on the reference machine. The yardstick is the benchmark's
// own code and touches nothing of the program, so a change to the
// program moves the metrics exactly as it moves the wall clock. Every
// run prints the wall-clock figures beside the scaled ones and keeps
// them in its result record ("raw"); the speeds read are per-layer
// metrics (ref.*).
const (
	refNodes  = 400
	refDegree = 4
	refRecord = 256 // bytes per append

	// A reading is refUnits units of refTrees trees each, about 50 ms.
	// The durable yardstick's unit is smaller and ends in an fsync'd
	// append: two trees (0.27 ms) to one sync (0.2 ms) is what a
	// churn_durable cycle spends on the reference machine, 0.5 ms of
	// solving, committing and encoding around its two syncs.
	refUnits, refTrees               = 18, 20
	refDurableUnits, refDurableTrees = 100, 2

	// The reference machine, roughly this box at its quietest:
	// microseconds per unit.
	refNominalUs        = 2700.0
	refDurableNominalUs = 550.0

	// sliceLen is the stretch of a window between two readings.
	sliceLen = time.Second
)

type refArc struct {
	to int
	w  float64
}

type refItem struct {
	v int
	d float64
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refClock holds the yardstick's fixed inputs and every reading taken,
// as machine speeds: 1 on the reference machine, 0.5 on one that needs
// twice as long.
type refClock struct {
	adj          [][]refArc
	file         *os.File // the durable yardstick's log; nil otherwise
	buf          []byte
	units, trees int
	nominalUs    float64
	unitUs       []float64 // per reading, for the report
	speeds       []float64
	sink         float64
}

// newRefClock builds the fixed graph; with a directory it is the
// durable yardstick and appends to a scratch file there.
func newRefClock(durableDir string) (*refClock, error) {
	c := &refClock{adj: make([][]refArc, refNodes), buf: make([]byte, refRecord),
		units: refUnits, trees: refTrees, nominalUs: refNominalUs}
	rng := newRand(topologySeed + 3)
	for i := range c.adj {
		for k := 0; k < refDegree; k++ {
			j, w := rng.Intn(refNodes), rng.Float64()+0.1
			c.adj[i] = append(c.adj[i], refArc{j, w})
			c.adj[j] = append(c.adj[j], refArc{i, w})
		}
	}
	if durableDir != "" {
		f, err := os.Create(filepath.Join(durableDir, "ref-log"))
		if err != nil {
			return nil, fmt.Errorf("reference clock: %w", err)
		}
		c.file, c.units, c.trees, c.nominalUs = f, refDurableUnits, refDurableTrees, refDurableNominalUs
	}
	return c, nil
}

func (c *refClock) close() {
	if c.file != nil {
		c.file.Close()
		c.file = nil
	}
}

// tree grows one shortest-path tree the way naive code would: fresh
// slices, a map and a boxed heap per call, because allocation and
// memory traffic are what the machine's slow spells slow.
func (c *refClock) tree(src int) float64 {
	dist := make([]float64, len(c.adj))
	for i := range dist {
		dist[i] = 1e18
	}
	dist[src] = 0
	prev := make(map[int]int, len(c.adj))
	q := &refHeap{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range c.adj[it.v] {
			if nd := it.d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				prev[a.to] = it.v
				heap.Push(q, refItem{a.to, nd})
			}
		}
	}
	return dist[len(dist)-1] + float64(len(prev))
}

// read takes one reading — the same work every time, timed — and
// returns the machine's speed over it.
func (c *refClock) read() (float64, error) {
	t0 := time.Now()
	for u := 0; u < c.units; u++ {
		for i := 0; i < c.trees; i++ {
			c.sink += c.tree((u*c.trees + i) % refNodes)
		}
		if c.file != nil {
			if _, err := c.file.Write(c.buf); err != nil {
				return 0, fmt.Errorf("reference clock: %w", err)
			}
			if err := c.file.Sync(); err != nil {
				return 0, fmt.Errorf("reference clock: %w", err)
			}
		}
	}
	us := usOf(time.Since(t0)) / float64(c.units)
	c.unitUs = append(c.unitUs, us)
	c.speeds = append(c.speeds, c.nominalUs/us)
	return c.nominalUs / us, nil
}

// between is the speed over a stretch with a reading at either end: the
// yardstick's mean time there, as a speed.
func between(a, b float64) float64 { return 2 / (1/a + 1/b) }

// slices cuts a measured window into stretches of sliceLen with a
// reading on either side of each, and keeps each stretch's speed and
// operation count.
type slices struct {
	clk     *refClock
	left    time.Duration // of the window
	last    float64       // the reading that closed the previous slice
	started time.Time
	speed   []float64
	ops     []int
	dur     []time.Duration
}

func (rc *runCtx) newSlices(window time.Duration) *slices {
	return &slices{clk: rc.ref, left: window}
}

// open starts the next slice and returns its index and deadline; ok is
// false once the window is used up. The first call takes the opening
// reading.
func (s *slices) open() (i int, until time.Time, ok bool, err error) {
	if s.left <= 0 {
		return 0, time.Time{}, false, nil
	}
	if len(s.speed) == 0 {
		if s.last, err = s.clk.read(); err != nil {
			return 0, time.Time{}, false, err
		}
	}
	d := min(sliceLen, s.left)
	if s.left-d < sliceLen/2 {
		d = s.left // no stub of a slice at the end
	}
	s.left -= d
	s.started = time.Now()
	return len(s.speed), s.started.Add(d), true, nil
}

// close ends the slice open started, in which ops operations
// completed, and takes the reading that closes it.
func (s *slices) close(ops int) error {
	dur := time.Since(s.started)
	r, err := s.clk.read()
	if err != nil {
		return err
	}
	s.speed = append(s.speed, between(s.last, r))
	s.ops = append(s.ops, ops)
	s.dur = append(s.dur, dur)
	s.last = r
	return nil
}

// rate is operations per reference second: each slice's count over its
// duration in reference time, the slowest and the fastest fifth of the
// slices dropped and the rest averaged, so a stall that empties a slice
// or a reading that went wrong does not move the figure.
func (s *slices) rate() float64 {
	rates := make([]float64, len(s.ops))
	for i := range rates {
		rates[i] = float64(s.ops[i]) / (s.dur[i].Seconds() * s.speed[i])
	}
	return trimmedMean(rates)
}

// rawRate is operations per wall-clock second over all slices.
func (s *slices) rawRate() float64 {
	var ops int
	var dur time.Duration
	for i := range s.ops {
		ops += s.ops[i]
		dur += s.dur[i]
	}
	if dur <= 0 {
		return 0
	}
	return float64(ops) / dur.Seconds()
}

// trimmedMean drops a fifth of the values at each end of the ranking
// and averages the rest.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	trim := len(s) / 5
	return mean(s[trim : len(s)-trim])
}

// timed is a sample of durations, each tagged with the slice it was
// taken in.
type timed struct {
	v     []float64
	slice []int
}

func (t *timed) add(v float64, slice int) {
	t.v = append(t.v, v)
	t.slice = append(t.slice, slice)
}

// ref returns the sample in reference time; a slice that was never
// closed (the run failed inside it) has no speed and drops out.
func (t *timed) ref(speed []float64) []float64 {
	out := make([]float64, 0, len(t.v))
	for i, v := range t.v {
		if t.slice[i] < len(speed) {
			out = append(out, v*speed[t.slice[i]])
		}
	}
	return out
}

// refSummary puts what the yardstick read during the run beside the
// metrics it scaled.
func (rc *runCtx) refSummary() {
	if len(rc.ref.speeds) == 0 {
		return
	}
	speeds := sortedCopy(rc.ref.speeds)
	rc.layer["ref.unit_us"] = median(rc.ref.unitUs)
	rc.layer["ref.speed"] = percentile(speeds, 0.5)
	rc.layer["ref.speed_min"] = speeds[0]
	rc.samples["ref_readings"] = len(speeds)
}

// report fills the run's throughput and latency figures: the rate from
// rate's slices and the latency sample scaled by the slices it was
// taken in, with the wall-clock values of both kept beside them.
func (rc *runCtx) report(rate, taken *slices, lat *timed) {
	rc.e2e["ops_per_s"] = rate.rate()
	rc.e2e["op_p50_ms"] = median(lat.ref(taken.speed))
	rc.raw["ops_per_s"] = rate.rawRate()
	rc.raw["op_p50_ms"] = median(lat.v)
	rc.layer["e2e.op_p90_ms"] = tail(lat.v, 0.90)
	rc.layer["e2e.op_p99_ms"] = tail(lat.v, 0.99)
	rc.samples["op"] = len(lat.v)
	rc.samples["slices"] = len(rate.speed)
}
