// Command bench is the repository's one benchmark: four workloads over
// the whole stack (solver library, HTTP server, admission queue,
// durable manager), end-to-end metrics from an untraced run and a
// per-layer ledger from a traced one, every layer measured from outside
// through its exported functions and counters. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	bench -seed N -out DIR [-runs R]                      every workload, untraced and traced
//	bench -compare A B                                    judge result set B against A
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
)

// Shares of a run's --seconds. Set-up and cold starts sit outside it.
const (
	setupReps     = 5
	coldStartReps = 5
	// untracedShare of a traced run's window runs without spans or
	// replay, so the same process yields both sides of the overhead.
	untracedShare = 0.25
)

var processStart = time.Now()

// workload is one set of inputs. setup covers everything up to the
// first measured operation, warm-up included, and is repeated so its
// time is a median; measure fills the run's metrics; coldStart is one
// start from the persisted form to the first answer; verify is the
// correctness oracle over the state measure left behind.
type workload interface {
	setup(rc *runCtx) error
	measure(rc *runCtx) error
	coldStart(rc *runCtx) (time.Duration, error)
	verify(rc *runCtx) error
	close() error
}

type workloadDef struct {
	name string
	why  string
	// durable picks the reference clock's yardstick (ref.go): with
	// fsync'd appends where every operation syncs, without elsewhere.
	durable bool
	make    func() workload
}

var workloads = []workloadDef{
	{"solve_paper", "library use: back-to-back core.Solve on a warm 200-node network; core/mod/steiner do all the work, the serving layers none",
		false, func() workload { return &solvePaper{} }},
	{"serve_mixed", "the request a user sends: HTTP admits and releases of mixed signatures through queue and manager, WAL off; no layer dominates and caches barely hit",
		false, func() workload { return &serveMixed{} }},
	{"burst_shared", "deep single-signature bursts through Queue.Enqueue: the same queue, batch and scaffold-cache code as serve_mixed, used the way it was built for",
		false, func() workload { return &burstShared{} }},
	{"churn_durable", "small tasks through a manager with a SyncAlways WAL, then crash and restore: fsync and the commit path dominate and the solver is cheap",
		true, func() workload { return &churnDurable{} }},
}

// runCtx carries one run's arguments in and its measurements out.
type runCtx struct {
	seed   int64
	window time.Duration
	tr     *tracer // nil when untraced
	tmp    string  // scratch directory inside the checkout

	ref *refClock // the yardstick every time is scaled by

	mu        sync.Mutex // guards the counts and errs below
	e2e       map[string]float64
	raw       map[string]float64 // the timed end-to-end metrics on the wall clock, unscaled
	layer     map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	ops       int // operations in the measured window, for per-op process numbers
	planHash  string
	errs      []string
	dirs      int
}

// nextDir numbers the scratch directories a run creates under tmp.
func (rc *runCtx) nextDir() int {
	rc.dirs++
	return rc.dirs
}

// fail records a failed correctness check; safe from any goroutine.
func (rc *runCtx) fail(format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.errs) < 20 {
		rc.errs = append(rc.errs, fmt.Sprintf(format, args...))
	}
}

// count records one attempted operation and reports whether it
// succeeded; a failure is also a failed check, because the workloads
// are sized so that nothing fails.
func (rc *runCtx) count(err error, what string) bool {
	rc.mu.Lock()
	rc.attempted++
	if err != nil {
		rc.failed++
	}
	rc.mu.Unlock()
	if err != nil {
		rc.fail("%s: %v", what, err)
	}
	return err == nil
}

// untracedPrefix is the instant a traced run starts tracing.
func (rc *runCtx) untracedPrefix() time.Time {
	return time.Now().Add(time.Duration(float64(rc.window) * untracedShare))
}

// overhead reports how much slower the measured operation ran with
// spans and replay on than in the same run's untraced prefix.
func (rc *runCtx) overhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	if u > 0 && t > 0 {
		rc.layer["obs.trace_overhead_pct"] = (t - u) / u * 100
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as the result files keep it.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	PlanHash string         `json:"plan_hash"`
	Samples  map[string]int `json:"samples"`
	// Raw holds the timed end-to-end metrics as the wall clock read
	// them, before scaling to reference time.
	Raw  map[string]float64 `json:"raw"`
	Host hostInfo           `json:"host"`
	report
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 records spans and layer replay and reports the per-layer metrics")
		out     = flag.String("out", "bench/out", "directory for result and span files")
		runs    = flag.Int("runs", 1, "full mode: runs per workload and trace setting, seeds seed..seed+runs-1")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare A B")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json from the program's own tables")
	)
	flag.Parse()
	var err error
	switch {
	case *spec:
		err = printSpec(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: bench -compare A B")
		} else {
			err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *out)
	default:
		err = runAll(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runOne is the driver's form: one workload, one trace setting, the
// report as the last line of standard output.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) error {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v: must be positive", seconds)
	}
	host, err := probeHost()
	if err != nil {
		return err
	}
	// The build cache, temp files and outputs all live under the
	// checkout the command was started from.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmpRoot := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rc := &runCtx{
		seed: seed, window: time.Duration(seconds * float64(time.Second)),
		tmp: tmp,
		e2e: map[string]float64{}, raw: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
	}
	if traced {
		rc.tr = newTracer()
	}
	if err := runWorkload(def, rc); err != nil {
		return err
	}

	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		PlanHash: rc.planHash, Samples: rc.samples, Raw: rc.raw, Host: host}
	rec.Correct = len(rc.errs) == 0
	rec.Attempted, rec.Failed = rc.attempted, rc.failed
	rec.Metrics = map[string]metricValue{}
	defs, values := perLayer, rc.layer
	if !traced {
		defs, values = nil, rc.e2e
		for _, d := range endToEnd {
			defs = append(defs, d.layerDef)
		}
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}

	fmt.Printf("workload %s  seed %d  window %.0fs  trace %v  plan %s\n", name, seed, seconds, traced, rc.planHash)
	fmt.Printf("host: %s\n", host)
	fmt.Printf("reference clock: %.1f us a unit (%.1f on the reference machine), speed %.3f, lowest %.3f\n",
		rc.layer["ref.unit_us"], rc.ref.nominalUs, rc.layer["ref.speed"], rc.layer["ref.speed_min"])
	keys := make([]string, 0, len(rc.samples))
	for k := range rc.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples %-28s %d\n", k, rc.samples[k])
	}
	for _, d := range defs {
		fmt.Printf("%-30s %14.4f %s", d.Name, values[d.Name], d.Unit)
		if v, ok := rc.raw[d.Name]; ok && !traced {
			fmt.Printf("   (wall clock %.4f, machine speed %.3f)", v, rc.layer["ref.speed"])
		}
		fmt.Println()
	}
	for _, e := range rc.errs {
		fmt.Fprintln(os.Stderr, "bench: check failed:", e)
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d correctness checks failed; no result written", name, len(rc.errs))
	}
	if traced {
		if err := rc.tr.write(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
			return err
		}
	}
	if err := appendRecord(filepath.Join(outDir, resultsFile), &rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec.report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload is the sequence every workload follows.
func runWorkload(def *workloadDef, rc *runCtx) (err error) {
	durableDir := ""
	if def.durable {
		durableDir = rc.tmp
	}
	if rc.ref, err = newRefClock(durableDir); err != nil {
		return err
	}
	defer rc.ref.close()
	defer rc.refSummary()

	var w workload
	var setups, rawSetups []float64
	preamble := time.Since(processStart) // the first set-up also pays process start
	before, err := rc.ref.read()
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return fmt.Errorf("%s: close: %w", def.name, err)
			}
		}
		w = def.make()
		t0 := time.Now()
		if err := w.setup(rc); err != nil {
			return fmt.Errorf("%s: setup: %w", def.name, err)
		}
		d := time.Since(t0)
		if i == 0 {
			d += preamble
		}
		after, err := rc.ref.read()
		if err != nil {
			return err
		}
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()*between(before, after))
		before = after
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: close: %w", def.name, cerr)
		}
	}()
	rc.e2e["setup_s"] = median(setups)
	rc.raw["setup_s"] = median(rawSetups)

	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	debug.FreeOSMemory()
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	c0 := readCounters()
	t0 := time.Now()
	if err := w.measure(rc); err != nil {
		return fmt.Errorf("%s: measure: %w", def.name, err)
	}
	wall := time.Since(t0)
	readCounters().since(c0, rc.layer)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	cpu := tvSeconds(ru1.Utime) + tvSeconds(ru1.Stime) - tvSeconds(ru0.Utime) - tvSeconds(ru0.Stime)
	rc.layer["proc.cpu_util"] = cpu / wall.Seconds() / float64(runtime.NumCPU())
	rc.layer["proc.gc_pause_ms"] = msOf(time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs))
	if rc.ops > 0 {
		rc.layer["proc.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(rc.ops)
	}
	if rc.attempted > 0 {
		rc.layer["e2e.fail_share"] = float64(rc.failed) / float64(rc.attempted)
	}

	var colds []float64
	for i := 0; i < coldStartReps; i++ {
		d, err := w.coldStart(rc)
		if err != nil {
			return fmt.Errorf("%s: cold start: %w", def.name, err)
		}
		colds = append(colds, msOf(d))
	}
	rc.layer["e2e.cold_start_ms"] = median(colds)

	if err := w.verify(rc); err != nil {
		return fmt.Errorf("%s: verify: %w", def.name, err)
	}
	if rc.tr != nil {
		if err := opaProbe(rc); err != nil {
			return err
		}
		rc.ledgerShares()
	}
	if rc.attempted < 1 {
		rc.fail("no operation attempted")
	}
	for _, d := range endToEnd {
		if v := rc.e2e[d.Name]; !(v > 0) {
			rc.fail("end-to-end metric %s = %v, want > 0", d.Name, v)
		}
	}
	return nil
}

// ledgerShares turns the recorded spans into each layer's share of the
// operations' time, self time only, and the coverage figure.
func (rc *runCtx) ledgerShares() {
	self := selfTimes(rc.tr.spans)
	var total int64
	for _, l := range shareLayers {
		total += self[l]
	}
	if total == 0 {
		return
	}
	for _, l := range shareLayers {
		rc.layer["share."+l] = float64(self[l]) / float64(total)
	}
	rc.layer["trace.coverage"] = coverage(rc.tr.spans)
}

// counters are the process-wide cache and pool counters the layers
// export. In a traced run layer replay draws on the same pools, so the
// pool ratios there describe real and replayed calls together.
type counters struct {
	modHit, modMiss, metricHit, metricMiss       int64
	poolGets, poolNews, journalGets, journalNews int64
}

func readCounters() counters {
	var c counters
	c.modHit, c.modMiss = mod.CacheStats()
	c.metricHit, c.metricMiss = nfv.MetricCacheStats()
	c.poolGets, c.poolNews = graph.PoolStats()
	c.journalGets, c.journalNews = core.JournalPoolStats()
	return c
}

// since writes the hit and reuse ratios over the interval from c0.
func (c counters) since(c0 counters, m map[string]float64) {
	ratio := func(good, total int64) float64 {
		if total <= 0 {
			return 0
		}
		return float64(good) / float64(total)
	}
	hit, miss := c.modHit-c0.modHit, c.modMiss-c0.modMiss
	m["mod.cache_hit"] = ratio(hit, hit+miss)
	hit, miss = c.metricHit-c0.metricHit, c.metricMiss-c0.metricMiss
	m["nfv.metric_cache_hit"] = ratio(hit, hit+miss)
	gets, news := c.poolGets-c0.poolGets, c.poolNews-c0.poolNews
	m["graph.pool_reuse"] = ratio(gets-news, gets)
	gets, news = c.journalGets-c0.journalGets, c.journalNews-c0.journalNews
	m["core.journal_pool_reuse"] = ratio(gets-news, gets)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
