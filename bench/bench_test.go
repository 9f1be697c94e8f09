package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/netgen"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// Stalled sub-windows must not move the tail as long as most are clean:
// the estimator takes the median of the sub-windows' own quantiles.
func TestTailIgnoresStalledWindows(t *testing.T) {
	n := tailWindows * minTailWindow
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1
	}
	for _, w := range []int{0, 3} { // two stalls, 5% of a sub-window each
		for i := 0; i < minTailWindow/20; i++ {
			xs[w*minTailWindow+10+i] = 100
		}
	}
	if got := tail(xs, 0.99); got != 1 {
		t.Errorf("tail with two stalled sub-windows = %v, want 1", got)
	}
	if got := percentile(sortedCopy(xs), 0.99); got != 100 {
		t.Errorf("whole-run p99 = %v, want 100 (the stall shows there)", got)
	}
	// Too few samples to split: the whole run's quantile.
	if got := tail(xs[:minTailWindow], 0.99); got != 100 {
		t.Errorf("tail of a short run = %v, want 100", got)
	}
}

// A machine at half speed takes twice as long over the same work: in
// reference time the rate and the latency must come out as on the
// reference machine, and slices whose reading went wrong must not move
// the rate.
func TestReferenceTimeCancelsMachineSpeed(t *testing.T) {
	// Readings of 1 and 0.5: the yardstick took 1 and 2 units of time,
	// 1.5 on average, so the stretch between them ran at 1/1.5.
	if got := between(1, 1); got != 1 {
		t.Errorf("speed between two readings of 1 = %v, want 1", got)
	}
	if got, want := between(1, 0.5), 1/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("speed between readings of 1 and 0.5 = %v, want %v", got, want)
	}

	// Ten slices of one second: 100 ops each at full speed, 50 at half
	// speed; two more with a stalled machine and a reading that missed it.
	var fast, mixed slices
	var lat timed
	for i := 0; i < 10; i++ {
		fast.ops, fast.dur, fast.speed = append(fast.ops, 100), append(fast.dur, time.Second), append(fast.speed, 1)
		ops, speed := 100, 1.0
		if i%2 == 1 {
			ops, speed = 50, 0.5
		}
		mixed.ops, mixed.dur, mixed.speed = append(mixed.ops, ops), append(mixed.dur, time.Second), append(mixed.speed, speed)
		lat.add(10/speed, i)
	}
	for i := 0; i < 2; i++ {
		mixed.ops, mixed.dur, mixed.speed = append(mixed.ops, 3), append(mixed.dur, time.Second), append(mixed.speed, 1)
	}
	if got := fast.rate(); got != 100 {
		t.Errorf("rate on the reference machine = %v, want 100", got)
	}
	if got := mixed.rate(); got != 100 {
		t.Errorf("rate in reference time = %v, want 100", got)
	}
	if got, want := mixed.rawRate(), 756.0/12; got != want {
		t.Errorf("wall-clock rate = %v, want %v", got, want)
	}
	for i, v := range lat.ref(mixed.speed) {
		if v != 10 {
			t.Errorf("latency %d in reference time = %v, want 10", i, v)
		}
	}
	// A sample from a slice that never closed has no speed and drops out.
	lat.add(7, 99)
	if got := len(lat.ref(mixed.speed)); got != 10 {
		t.Errorf("%d samples in reference time, want 10", got)
	}
}

// The yardstick is fixed work: every reading grows the same trees, and
// the slices hand out the whole window and no more.
func TestReferenceClockIsFixedWork(t *testing.T) {
	a, err := newRefClock("")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newRefClock(t.TempDir())
	defer b.close()
	if _, err := a.read(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.read(); err != nil {
		t.Fatal(err)
	}
	// 18 x 20 trees here, 100 x 2 there, from the same sources in turn.
	if a.sink <= 0 || b.sink <= 0 || a.sink == b.sink {
		t.Errorf("the plain and the durable yardstick did %v and %v", a.sink, b.sink)
	}
	first := a.sink
	if _, err := a.read(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.sink-2*first) > 1e-6*first {
		t.Errorf("a second reading added %v to the sink, the first %v: not the same work", a.sink-first, first)
	}
	if info, err := b.file.Stat(); err != nil || info.Size() != refDurableUnits*refRecord {
		t.Errorf("durable yardstick wrote %v bytes (%v), want %d", info.Size(), err, refDurableUnits*refRecord)
	}
	if a.speeds[0] <= 0 || a.unitUs[0] <= 0 || a.speeds[0] != refNominalUs/a.unitUs[0] {
		t.Errorf("reading %v us a unit as speed %v", a.unitUs[0], a.speeds[0])
	}

	s := &slices{clk: a, left: 3*sliceLen + sliceLen/4}
	var total time.Duration
	n := 0
	for {
		_, until, ok, err := s.open()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total += until.Sub(s.started)
		s.started = s.started.Add(-time.Second) // as if a second had passed
		if err := s.close(1); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 || total != 3*sliceLen+sliceLen/4 {
		t.Errorf("%d slices covering %v, want 3 covering %v (a short rest joins the last slice)", n, total, 3*sliceLen+sliceLen/4)
	}
	if got := len(a.speeds); got != 2+1+n {
		t.Errorf("%d readings, want the two above, one opening the slices and one closing each", got)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4):
// for 1..10 the cut points are 2.75, 5.5, 8.25.
func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileMedian(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := spread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Parent: 0, Name: "dynamic.admit", Start: 0, End: 100},
		{ID: 2, Trace: 1, Parent: 1, Name: "core.solve", Start: 0, End: 60},
		{ID: 3, Trace: 1, Parent: 2, Name: "mod.build", Start: 0, End: 20},
		{ID: 4, Trace: 1, Parent: 2, Name: "steiner.kmb", Start: 20, End: 30},
		{ID: 5, Trace: 1, Parent: 1, Name: "wal.append", Start: 60, End: 90},
		{ID: 6, Trace: 2, Parent: 0, Name: "probe.wal.open", Start: 0, End: 1000},
	}
	self := selfTimes(spans)
	want := map[string]int64{"dynamic": 10, "core": 30, "mod": 20, "steiner": 10, "wal": 30, "probe": 1000}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	// Leaves under the root: 20 + 10 + 30 of 100; the probe is no op.
	if got := coverage(spans); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
}

// Same seed, same inputs; another seed, other inputs — for every plan.
func TestPlansAreDeterministic(t *testing.T) {
	doc, err := encodeNetwork(netgen.PaperConfig(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	net, err := decodeNetwork(doc)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]func(seed int64) (any, error){
		"solve_paper":   func(s int64) (any, error) { return genTasks(net, newRand(s), 18, solveShapes) },
		"serve_mixed":   func(s int64) (any, error) { return planServe(net, s, 2*time.Second) },
		"burst_shared":  func(s int64) (any, error) { return planBursts(net, newRand(s), 4) },
		"churn_durable": func(s int64) (any, error) { return planChurn(net, s) },
	}
	for name, plan := range plans {
		hash := func(seed int64) string {
			p, err := plan(seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return planHash(p)
		}
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: seed 7 gave plans %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same plan %s", name, a)
		}
	}
	// The topology does not depend on the run's seed at all.
	doc2, err := encodeNetwork(netgen.PaperConfig(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != string(doc2) {
		t.Error("two encodings of the fixed topology differ")
	}
}

// A slow system must inflate open-loop latency, not thin the load:
// every event is still sent, and a request stuck behind the stall is
// timed from its due instant, not from when a worker got to it.
func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	const n, gap, service = 40, time.Millisecond, 5 * time.Millisecond
	events := make([]event, n)
	for i := range events {
		events[i] = event{At: time.Duration(i) * gap, Arrival: i}
	}
	var sent atomic.Int64
	var mu sync.Mutex
	var fromDue, fromSend time.Duration
	stats := openLoop(events, 1, time.Now(), func(ev event, due time.Time) {
		t0 := time.Now()
		time.Sleep(service) // the stubbed slow handler
		sent.Add(1)
		mu.Lock()
		fromDue = max(fromDue, time.Since(due))
		fromSend = max(fromSend, time.Since(t0))
		mu.Unlock()
	})
	if sent.Load() != n {
		t.Fatalf("%d of %d events sent: the load was thinned", sent.Load(), n)
	}
	// The last event is due at 39 ms and served after 40 x 5 ms.
	if want := time.Duration(n)*service - time.Duration(n)*gap; fromDue < want {
		t.Errorf("worst latency from the due instant = %v, want at least %v", fromDue, want)
	}
	if fromSend > 4*service {
		t.Errorf("worst latency from the send instant = %v: the stub itself stalled, test is void", fromSend)
	}
	if len(stats.fifoMs) < n/2 {
		t.Errorf("%d events waited for a worker, want most of %d", len(stats.fifoMs), n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lowerIsBetter := metricDef{layerDef{"op_p50_ms", "ms", lower}, 0.10}
	higherIsBetter := metricDef{layerDef{"ops_per_s", "1/s", higher}, 0.10}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 100}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lowerIsBetter, steady, steady, verdictOK},
		{"slower within the bound", lowerIsBetter, steady, scale(steady, 1.08), verdictOK},
		{"slower beyond the bound", lowerIsBetter, steady, scale(steady, 1.15), verdictRegression},
		{"faster", lowerIsBetter, steady, scale(steady, 0.5), verdictOK},
		{"throughput down beyond the bound", higherIsBetter, steady, scale(steady, 0.85), verdictRegression},
		{"throughput up", higherIsBetter, steady, scale(steady, 1.5), verdictOK},
		{"spread hides the answer", lowerIsBetter, noisy, scale(noisy, 1.5), verdictUnresolved},
		{"one side missing", lowerIsBetter, steady, nil, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// Whole sets: only untraced records of the right workload count.
	rec := func(workload string, traced bool, v float64) record {
		r := record{Workload: workload, Trace: traced}
		r.Metrics = map[string]metricValue{}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		return r
	}
	var a, b []record
	for _, w := range workloads {
		a = append(a, rec(w.name, false, 100), rec(w.name, true, 1))
		b = append(b, rec(w.name, false, 100), rec(w.name, true, 1e9))
	}
	b[0] = rec(workloads[0].name, false, 200) // everything doubled on the first workload
	regressions := 0
	for _, r := range compareSets(a, b) {
		if r.verdict == verdictRegression {
			regressions++
			if r.workload != workloads[0].name {
				t.Errorf("regression reported on %s", r.workload)
			}
		}
	}
	// Doubling worsens every lower-is-better metric and improves ops_per_s.
	if want := len(endToEnd) - 1; regressions != want {
		t.Errorf("%d regressions, want %d", regressions, want)
	}
}

// BENCHMARK.json is generated from the program's tables (bench -spec)
// and must stay inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(currentSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(onDisk)
	exp, _ := json.Marshal(want)
	if string(got) != string(exp) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with: bench -spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s outside the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", d.Bound, d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
