// Command sftload is an open-loop, coordinated-omission-safe load
// generator for the sftserve session API. It pre-computes a seeded
// Poisson arrival schedule (fixed -seed => identical workload every
// run), fires each admission at its *scheduled* instant regardless of
// how slow the server is, and measures admission latency from that
// scheduled instant — so a stalled server inflates the tail instead of
// silently thinning the offered load (no coordinated omission).
//
// Each admitted session holds for an exponentially distributed time
// (-hold mean) and is then released, so the server reaches a steady
// state of live sessions proportional to rate×hold (Little's law).
// Tasks are sampled from a configurable mix of task shapes
// ("destsxchain:weight" terms: destinations × chain length); every
// arrival draws its own chain.
//
// By default sftload serves its own in-process sftserve (httptest) on
// a generated network — the same queued server sftserve runs; -url
// points it at a live server instead, in which case -nodes/-seed must
// match the server's so sampled tasks reference valid node IDs.
//
// Output: one table row per offered rate (sustained admissions/sec,
// p50/p95/p99/p999 scheduled-start latency, rejection rate, an
// explicit saturated verdict) plus a machine-readable JSON artifact
// via -out, whose points also carry the wait/solve latency split the
// admission responses report. The default rate ladder deliberately
// ends past the server's saturation point so the artifact charts the
// overload regime, not just the comfortable one. -check turns the run
// into a smoke gate: it fails unless admissions happened, nothing was
// dropped at an unsaturated point, /metrics shows a warm metric-cache
// hit rate, and /debug/traces carries a request-ID-stamped admission
// trace.
//
// sftload talks to the server over HTTP only. Crashes under live
// admissions are checked by internal/server's
// TestCrashUnderConcurrentAdmissions, faults and their repairs by
// sftchaos's op script.
//
// Usage:
//
//	sftload -rates 4,16,64 -duration 5s -out load.json
//	sftload -url http://host:8080 -nodes 50 -seed 1 -rates 32
//	sftload -rates 24 -duration 5s -check
//	sftload -mix '6x4' -rates 768 -duration 4s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sftload:", err)
		os.Exit(1)
	}
}

// sig is one term of the task-shape mix: tasks with |D|=dests
// destinations and a chain of chainLen VNFs, drawn with the given
// weight.
type sig struct {
	dests, chainLen int
	weight          float64
}

// parseMix parses "2x3:2,4x3:1,8x5:1" into task-shape terms.
func parseMix(s string) ([]sig, error) {
	var out []sig
	var total float64
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		shape, w := term, 1.0
		if i := strings.IndexByte(term, ':'); i >= 0 {
			shape = term[:i]
			f, err := strconv.ParseFloat(term[i+1:], 64)
			if err != nil || !(f > 0 && f <= math.MaxFloat64) {
				return nil, fmt.Errorf("mix term %q: weight must be finite and > 0", term)
			}
			w = f
		}
		d, c, ok := strings.Cut(shape, "x")
		if !ok {
			return nil, fmt.Errorf("mix term %q: want destsxchain[:weight]", term)
		}
		dn, err1 := strconv.Atoi(d)
		cn, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil || dn < 1 || cn < 1 {
			return nil, fmt.Errorf("mix term %q: bad shape", term)
		}
		out = append(out, sig{dests: dn, chainLen: cn, weight: w})
		total += w
	}
	if len(out) == 0 {
		return nil, errors.New("empty task-shape mix")
	}
	if math.IsInf(total, 1) {
		return nil, errors.New("mix weights sum past the largest float")
	}
	return out, nil
}

// arrival is one pre-scheduled admission: its offset from the run
// start, the task it submits, and how long the session holds before
// release (0 = never released).
type arrival struct {
	at   time.Duration
	task nfv.Task
	hold time.Duration
	warm bool // fell inside the warmup window: excluded from stats
}

// makePlan pre-generates the full arrival schedule for one rate point
// from a private seeded rng, so the offered workload is a pure
// function of (seed, rate, windows, mix) — runtime jitter never feeds
// back into what is offered.
func makePlan(net *nfv.Network, rng *rand.Rand, rate float64, warmup, window time.Duration, mix []sig, holdMean time.Duration) ([]arrival, error) {
	var totalW float64
	for _, m := range mix {
		totalW += m.weight
	}
	var plan []arrival
	total := warmup + window
	for t := time.Duration(float64(time.Second) * rng.ExpFloat64() / rate); t < total; t += time.Duration(float64(time.Second) * rng.ExpFloat64() / rate) {
		pick := rng.Float64() * totalW
		m := mix[len(mix)-1]
		for _, cand := range mix {
			if pick -= cand.weight; pick < 0 {
				m = cand
				break
			}
		}
		task, err := netgen.GenerateTask(net, rng, m.dests, m.chainLen)
		if err != nil {
			return nil, fmt.Errorf("sample task %dx%d: %w", m.dests, m.chainLen, err)
		}
		var hold time.Duration
		if holdMean > 0 {
			hold = time.Duration(float64(holdMean) * rng.ExpFloat64())
		}
		plan = append(plan, arrival{at: t, task: task, hold: hold, warm: t < warmup})
	}
	return plan, nil
}

// outcome classifies one completed admission attempt.
type outcome int

const (
	outAdmitted outcome = iota
	outRejected         // 409: the network could not host the session
	outError            // transport or unexpected server error
)

// sample is one completed admission measurement. waitMs/solveMs split
// an admission's latency as the server reports it: time parked in the
// admission queue vs the task's own solve-and-commit slot.
type sample struct {
	measured bool
	out      outcome
	latMs    float64
	waitMs   float64
	solveMs  float64
}

// collector gathers samples from concurrent admission goroutines; the
// mutex (not per-slot slices) keeps late stragglers race-free against
// the post-drain reader.
type collector struct {
	mu      sync.Mutex
	samples []sample
}

func (c *collector) add(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

func (c *collector) snapshot() []sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sample(nil), c.samples...)
}

// latencySummary reports exact percentiles over the measured samples.
type latencySummary struct {
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// exactQuantile returns the q-quantile of sorted (nearest-rank).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func summarize(lats []float64) latencySummary {
	if len(lats) == 0 {
		return latencySummary{}
	}
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return latencySummary{
		P50:  exactQuantile(sorted, 0.50),
		P95:  exactQuantile(sorted, 0.95),
		P99:  exactQuantile(sorted, 0.99),
		P999: exactQuantile(sorted, 0.999),
		Mean: sum / float64(len(sorted)),
		Max:  sorted[len(sorted)-1],
	}
}

// Saturation verdict thresholds: an open-loop harness shows overload
// as unbounded queueing delay and unfinished work, not as reduced
// offered load, so a point is saturated when measurements were
// dropped, completions lagged the offered arrivals, or the
// scheduled-start p99 blew past the threshold.
const (
	saturationP99Ms          = 250.0
	saturationCompletionFrac = 0.9
)

// point is one offered-rate measurement: the row of the
// rejection-rate-vs-offered-load curve.
type point struct {
	OfferedRate   float64 `json:"offered_rate"`
	Offered       int     `json:"offered"`  // scheduled arrivals in the measured window
	Admitted      int     `json:"admitted"` // measured-window admissions
	Rejected      int     `json:"rejected"`
	Errors        int     `json:"errors"`
	Dropped       int     `json:"dropped"` // scheduled but unfinished at drain end
	AdmitsPerSec  float64 `json:"admits_per_sec"`
	RejectionRate float64 `json:"rejection_rate"`
	// Saturated marks a point offered faster than the server completed
	// it (see the saturation* thresholds). Saturated points chart the
	// overload regime; throughput gates and latency SLOs should anchor
	// on unsaturated ones.
	Saturated bool           `json:"saturated"`
	Latency   latencySummary `json:"latency"`
	// Wait and Solve split the admission latency: Wait is the time
	// tickets spent parked in the admission queue before their solve
	// slot, Solve the per-task solve-and-commit time. Present when the
	// point admitted anything.
	Wait  *latencySummary `json:"wait,omitempty"`
	Solve *latencySummary `json:"solve,omitempty"`
}

// loadDoc is the -out artifact.
type loadDoc struct {
	Schema    string    `json:"schema"`
	Generated time.Time `json:"generated"`
	Config    struct {
		URL         string  `json:"url,omitempty"` // empty: in-process server
		Nodes       int     `json:"nodes"`
		Seed        int64   `json:"seed"`
		Mix         string  `json:"mix"`
		Rates       string  `json:"rates"`
		DurationSec float64 `json:"duration_sec"`
		WarmupSec   float64 `json:"warmup_sec"`
		HoldSec     float64 `json:"hold_sec"`
	} `json:"config"`
	Points []point `json:"points"`
	// Metrics excerpts the server's /metrics floats (cache hit rates,
	// pool reuse rates) and key counters after the run.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Trace is one request-ID-stamped admission trace pulled from
	// /debug/traces, proving end-to-end propagation.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// world is the system under test: a remote server (URL only) or an
// in-process one served over a loopback listener.
type world struct {
	url    string
	client *server.Client
	// self-serve only:
	ts  *httptest.Server
	srv *server.Server
}

func (w *world) close() {
	if w.srv != nil {
		// Drain queued admissions first so no handler is left blocked on
		// a ticket when the listener closes.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		_ = w.srv.Queue().Close(ctx)
		cancel()
	}
	if w.ts != nil {
		w.ts.Close()
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// maxRate bounds an offered rate: a plan step is a whole number of
// nanoseconds, so far past a million arrivals per second the steps
// round to zero and the plan never reaches the end of its window.
const maxRate = 1e6

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sftload", flag.ContinueOnError)
	var (
		url      = fs.String("url", "", "drive a running sftserve at this base URL (default: serve in-process)")
		nodes    = fs.Int("nodes", 50, "generated network size (must match the remote server's -nodes)")
		seed     = fs.Int64("seed", 1, "workload and network seed (must match the remote server's -seed)")
		rates    = fs.String("rates", "8,32,128,512,2048", "comma-separated offered admission rates (arrivals/sec), one curve point each; ends past saturation by default")
		duration = fs.Duration("duration", 5*time.Second, "measured window per rate point")
		warmup   = fs.Duration("warmup", 1*time.Second, "per-point warmup excluded from stats")
		hold     = fs.Duration("hold", 2*time.Second, "mean exponential session holding time before release (0 = never release)")
		mixStr   = fs.String("mix", "2x2:2,4x3:2,8x5:1", "task-shape mix: destsxchain[:weight] terms (destinations x chain length)")
		drain    = fs.Duration("drain", 10*time.Second, "post-window wait for in-flight admissions before counting them dropped")
		out      = fs.String("out", "", "write the JSON artifact here")
		check    = fs.Bool("check", false, "smoke-gate mode: fail unless admissions, zero unsaturated drops, a warm metric-cache hit rate and a request-ID trace are observed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixStr)
	if err != nil {
		return err
	}
	var rateList []float64
	for _, r := range strings.Split(*rates, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(r), 64)
		if err != nil || !(f > 0 && f <= maxRate) {
			return fmt.Errorf("bad rate %q: want arrivals/sec in (0, %g]", r, maxRate)
		}
		rateList = append(rateList, f)
	}
	if *duration <= 0 || *warmup < 0 || *hold < 0 || *drain < 0 {
		return errors.New("-duration must be > 0, and -warmup, -hold and -drain >= 0")
	}

	// The workload network: in-process mode serves it; remote mode only
	// samples tasks against it (so -nodes/-seed must match the server).
	network, err := netgen.Generate(netgen.PaperConfig(*nodes, 2), rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	w := &world{url: *url}
	if *url == "" {
		reg := obs.NewRegistry()
		quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
		w.srv = server.NewWith(network, core.Options{}, server.Config{Registry: reg, Logger: quiet})
		w.ts = httptest.NewUnstartedServer(w.srv)
		w.ts.Config.ConnState = obs.ConnState(reg)
		w.ts.Start()
		w.url = w.ts.URL
		defer w.close()
	}
	transport := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	defer transport.CloseIdleConnections()
	w.client = server.NewClient(w.url, &http.Client{Transport: transport, Timeout: 30 * time.Second})

	ctx := context.Background()
	if err := w.client.Health(ctx); err != nil {
		return fmt.Errorf("server not healthy at %s: %w", w.url, err)
	}

	// Release goroutines outlive their rate point (sessions hold across
	// point boundaries — that is the steady state); they all stop when
	// relCtx is cancelled at the end of the run.
	relCtx, relCancel := context.WithCancel(ctx)
	var relWG sync.WaitGroup
	defer func() {
		relCancel()
		relWG.Wait()
	}()

	doc := &loadDoc{Schema: "sftload/v1", Generated: time.Now().UTC()}
	doc.Config.URL = *url
	doc.Config.Nodes = *nodes
	doc.Config.Seed = *seed
	doc.Config.Mix = *mixStr
	doc.Config.Rates = *rates
	doc.Config.DurationSec = duration.Seconds()
	doc.Config.WarmupSec = warmup.Seconds()
	doc.Config.HoldSec = hold.Seconds()

	fmt.Fprintf(stdout, "%10s %9s %9s %6s %5s %9s %8s %8s %8s %8s %7s %4s\n",
		"rate/s", "admitted", "rejected", "errs", "drop", "adm/s", "p50ms", "p95ms", "p99ms", "p999ms", "rej%", "sat")
	for i, rate := range rateList {
		rng := rand.New(rand.NewSource(*seed + 1000003*int64(i)))
		plan, err := makePlan(network, rng, rate, *warmup, *duration, mix, *hold)
		if err != nil {
			return err
		}
		pt, err := runPoint(ctx, w, plan, rate, *duration, *drain, relCtx, &relWG)
		if err != nil {
			return err
		}
		doc.Points = append(doc.Points, pt)
		sat := ""
		if pt.Saturated {
			sat = "yes"
		}
		fmt.Fprintf(stdout, "%10.1f %9d %9d %6d %5d %9.1f %8.2f %8.2f %8.2f %8.2f %6.1f%% %4s\n",
			pt.OfferedRate, pt.Admitted, pt.Rejected, pt.Errors, pt.Dropped, pt.AdmitsPerSec,
			pt.Latency.P50, pt.Latency.P95, pt.Latency.P99, pt.Latency.P999, 100*pt.RejectionRate, sat)
	}

	// Scrape the server's telemetry: the floats section carries the
	// cache hit rates and the shortest-path pool's reuse rate.
	snap, snapErr := scrapeMetrics(ctx, w.url)
	if snapErr == nil {
		doc.Metrics = excerptMetrics(snap)
	}
	trace, traceErr := sampleTrace(ctx, w.url)
	if traceErr == nil {
		doc.Trace = trace
	}

	if *out != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if *check {
		return checkGate(doc, snap, snapErr, trace, traceErr, stdout)
	}
	return nil
}

// runPoint drives one offered-rate window: every arrival fires at its
// scheduled instant on its own goroutine, latency is measured from
// that instant, and anything still in flight after the drain budget is
// counted dropped (never silently ignored).
func runPoint(ctx context.Context, w *world, plan []arrival, rate float64, window, drain time.Duration, relCtx context.Context, relWG *sync.WaitGroup) (point, error) {
	col := &collector{}
	var wg sync.WaitGroup
	start := time.Now()

	offeredMeasured := 0
	for _, a := range plan {
		if !a.warm {
			offeredMeasured++
		}
		if !sleepCtx(ctx, time.Until(start.Add(a.at))) {
			return point{}, ctx.Err()
		}
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			sched := start.Add(a.at)
			resp, err := w.client.Admit(ctx, a.task)
			lat := time.Since(sched)
			s := sample{measured: !a.warm, latMs: float64(lat) / float64(time.Millisecond)}
			switch {
			case err == nil:
				s.out = outAdmitted
				s.waitMs, s.solveMs = resp.WaitMS, resp.SolveMS
				if a.hold > 0 {
					relWG.Add(1)
					go func() {
						defer relWG.Done()
						if sleepCtx(relCtx, a.hold) {
							_ = w.client.Release(relCtx, resp.ID)
						}
					}()
				}
			case isRejection(err):
				s.out = outRejected
			default:
				s.out = outError
			}
			col.add(s)
		}(a)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain):
	}

	pt := point{OfferedRate: rate, Offered: offeredMeasured}
	var lats, waits, solves []float64
	completedMeasured := 0
	for _, s := range col.snapshot() {
		if !s.measured {
			continue
		}
		completedMeasured++
		switch s.out {
		case outAdmitted:
			pt.Admitted++
			lats = append(lats, s.latMs)
			waits = append(waits, s.waitMs)
			solves = append(solves, s.solveMs)
		case outRejected:
			pt.Rejected++
		default:
			pt.Errors++
		}
	}
	pt.Dropped = offeredMeasured - completedMeasured
	pt.AdmitsPerSec = float64(pt.Admitted) / window.Seconds()
	if completedMeasured > 0 {
		pt.RejectionRate = float64(pt.Rejected) / float64(completedMeasured)
	}
	pt.Latency = summarize(lats)
	if len(solves) > 0 {
		ws, ss := summarize(waits), summarize(solves)
		pt.Wait, pt.Solve = &ws, &ss
	}
	pt.Saturated = pt.Dropped > 0 ||
		float64(completedMeasured) < saturationCompletionFrac*float64(offeredMeasured) ||
		pt.Latency.P99 > saturationP99Ms
	return pt, nil
}

// isRejection reports a 409 admission verdict: the network declined
// the session (a legitimate load-curve data point, not an error).
func isRejection(err error) bool {
	var apiErr *server.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict
}

// scrapeMetrics pulls the server's /metrics snapshot.
func scrapeMetrics(ctx context.Context, base string) (*obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// excerptMetrics keeps the artifact focused: all callback floats (the
// metric-cache, scaffold-cache and shortest-path-pool figures, the
// runtime totals and pause quantiles, the queue's level), the two
// counters whose ratio is requests per connection, what the chain
// searches read of their overlays (sfc_rows_*, counters folded from
// each solve's events), plus the headline solve percentiles.
func excerptMetrics(snap *obs.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(snap.Floats)+9)
	for k, v := range snap.Floats {
		out[k] = v
	}
	for _, name := range []string{"http_requests_total", "http_connections_opened_total",
		"sfc_rows_relaxed_total", "sfc_rows_dominated_total", "sfc_rows_total"} {
		if v, ok := snap.Counters[name]; ok {
			out[name] = float64(v)
		}
	}
	if h, ok := snap.Histograms["session_solve_ms"]; ok {
		out["session_solve_ms_p50"] = h.P50
		out["session_solve_ms_p99"] = h.P99
		out["session_solve_ms_p999"] = h.P999
		out["session_solve_ms_count"] = float64(h.Count)
	}
	return out
}

// sampleTrace pulls /debug/traces and returns the newest admission
// trace stamped with a request ID — the end-to-end propagation proof.
func sampleTrace(ctx context.Context, base string) (*obs.Trace, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/traces", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/traces: %s", resp.Status)
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	for i := len(doc.Traces) - 1; i >= 0; i-- {
		t := doc.Traces[i]
		if t.Op == "admit" && t.RequestID != "" && len(t.Spans) > 0 {
			return &t, nil
		}
	}
	return nil, errors.New("no request-ID-stamped admission trace in /debug/traces")
}

// checkGate enforces the smoke-gate assertions; any failure is an
// error the caller exits nonzero on.
func checkGate(doc *loadDoc, snap *obs.Snapshot, snapErr error, trace *obs.Trace, traceErr error, stdout io.Writer) error {
	var admitted, dropped int
	for _, pt := range doc.Points {
		admitted += pt.Admitted
		if !pt.Saturated {
			// Saturated points drop measurements by definition — that is
			// the signal, not a harness failure.
			dropped += pt.Dropped
		}
	}
	var fails []string
	if admitted == 0 {
		fails = append(fails, "no sessions admitted")
	}
	if dropped != 0 {
		fails = append(fails, fmt.Sprintf("%d measurements dropped (in flight past the drain budget) at unsaturated points", dropped))
	}
	switch {
	case snapErr != nil:
		fails = append(fails, fmt.Sprintf("scrape /metrics: %v", snapErr))
	default:
		if snap.Floats["metric_cache_hit_rate"] <= 0 {
			fails = append(fails, "metric_cache_hit_rate not > 0")
		}
		if h, ok := snap.Histograms["session_solve_ms"]; !ok || h.Count == 0 {
			fails = append(fails, "session_solve_ms histogram empty")
		}
	}
	if traceErr != nil {
		fails = append(fails, fmt.Sprintf("trace propagation: %v", traceErr))
	} else if trace.RequestID == "" {
		fails = append(fails, "sampled trace lacks a request ID")
	}
	if len(fails) > 0 {
		return fmt.Errorf("load gate failed:\n  - %s", strings.Join(fails, "\n  - "))
	}
	fmt.Fprintf(stdout, "load gate OK: %d admitted, 0 dropped, metric_cache_hit_rate=%.3f, trace request_id=%s\n",
		admitted, snap.Floats["metric_cache_hit_rate"], trace.RequestID)
	return nil
}
