package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/queue"
	"sftree/internal/server"
)

// serve_mixed sizes. The serving knobs are sftserve's defaults; the
// rate is a constant so parent and change are offered identical load.
const (
	serveNodes     = 100
	serveRate      = 100.0 // open-loop admits per second, roughly a quarter of capacity here
	serveHoldMean  = time.Second
	serveHoldMin   = 100 * time.Millisecond
	serveWarmup    = 64   // closed-loop admit+release pairs before the window
	serveOpenShare = 0.6  // of the window is the open-loop phase, the rest closed-loop
	servePool      = 2048 // closed-loop task pool, cycled
	serveHealthz   = 200  // bare round trips for server.healthz_us

	queueDepth  = 256
	batchWindow = 2 * time.Millisecond
)

// serveMix is one cycle of the task mix 5x3:2,10x5:2,20x7:1; the plan
// shuffles it once, so classes interleave without the mix drifting.
var serveMix = []shape{{5, 3}, {5, 3}, {10, 5}, {10, 5}, {20, 7}}

// event is one scheduled request of the open-loop phase.
type event struct {
	At      time.Duration `json:"at"`
	Release bool          `json:"release"`
	Arrival int           `json:"arrival"` // index into the arrivals
}

// servePlan is everything serve_mixed derives from the seed.
type servePlan struct {
	Tasks  []nfv.Task `json:"tasks"`  // one per open-loop arrival
	Events []event    `json:"events"` // admits and releases, by due instant
	Pool   []nfv.Task `json:"pool"`   // closed-loop tasks
}

// planServe draws Poisson arrivals at serveRate over the open phase,
// an exponential hold per session, and the closed-loop pool. Releases
// due after the phase ends are left to the drain.
func planServe(net *nfv.Network, seed int64, open time.Duration) (*servePlan, error) {
	rng := newRand(seed)
	pattern := append([]shape(nil), serveMix...)
	rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
	var p servePlan
	at, arrivals := time.Duration(0), 0
	for {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= open {
			break
		}
		hold := time.Duration(rng.ExpFloat64() * float64(serveHoldMean))
		if hold < serveHoldMin {
			hold = serveHoldMin
		}
		p.Events = append(p.Events, event{At: at, Arrival: arrivals})
		if at+hold < open {
			p.Events = append(p.Events, event{At: at + hold, Release: true, Arrival: arrivals})
		}
		arrivals++
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	var err error
	if p.Tasks, err = genTasks(net, rng, arrivals, pattern); err != nil {
		return nil, err
	}
	if p.Pool, err = genTasks(net, rng, servePool, pattern); err != nil {
		return nil, err
	}
	return &p, nil
}

// serveMixed is the full stack as sftserve ships it: HTTP, queue,
// manager, WAL off, generator and server in one process over loopback.
type serveMixed struct {
	doc    []byte
	srv    *server.Server
	ts     *httptest.Server
	client *server.Client
	plan   *servePlan
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startServer boots a server on net the way cmd/sftserve does and
// returns a client holding at most clients() keep-alive connections.
func startServer(net *nfv.Network) (*server.Server, *httptest.Server, *server.Client) {
	srv := server.NewWith(net, core.Options{}, server.Config{
		Logger:      quietLogger(),
		QueueDepth:  queueDepth,
		BatchWindow: batchWindow,
	})
	ts := httptest.NewServer(srv)
	tr := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}
	return srv, ts, server.NewClient(ts.URL, &http.Client{Transport: tr, Timeout: 30 * time.Second})
}

func stopServer(srv *server.Server, ts *httptest.Server) error {
	ts.CloseClientConnections()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if q := srv.Queue(); q != nil {
		if err := q.Close(ctx); err != nil {
			return fmt.Errorf("queue close: %w", err)
		}
	}
	return srv.Manager().Drain(ctx)
}

func (w *serveMixed) setup(rc *runCtx) error {
	doc, net, err := freshNetwork(rc, netgen.PaperConfig(serveNodes, 2))
	if err != nil {
		return err
	}
	w.doc = doc
	open := time.Duration(float64(rc.window) * serveOpenShare)
	if w.plan, err = planServe(net, rc.seed, open); err != nil {
		return err
	}
	rc.planHash = planHash(w.plan)
	w.srv, w.ts, w.client = startServer(net)
	ctx := context.Background()
	for i := 0; i < serveWarmup; i++ {
		resp, err := w.client.Admit(ctx, w.plan.Pool[i%len(w.plan.Pool)])
		if err != nil {
			return fmt.Errorf("warm-up admit %d: %w", i, err)
		}
		if err := w.client.Release(ctx, resp.ID); err != nil {
			return fmt.Errorf("warm-up release %d: %w", i, err)
		}
	}
	return nil
}

func (w *serveMixed) close() error {
	if w.ts == nil {
		return nil
	}
	err := stopServer(w.srv, w.ts)
	w.ts = nil
	return err
}

// statusCounts tallies responses by class.
type statusCounts struct{ ok, conflict, tooMany, serverErr, transport atomic.Int64 }

func (s *statusCounts) add(err error) {
	var api *server.APIError
	switch {
	case err == nil:
		s.ok.Add(1)
	case errors.As(err, &api) && api.Status == http.StatusConflict:
		s.conflict.Add(1)
	case errors.As(err, &api) && api.Status == http.StatusTooManyRequests:
		s.tooMany.Add(1)
	case errors.As(err, &api) && api.Status >= 500:
		s.serverErr.Add(1)
	default:
		s.transport.Add(1)
	}
}

// admitted is what the open-loop phase remembers of one arrival.
type admitted struct {
	done chan struct{} // closed once the admit has its answer
	id   dynamic.SessionID
	ok   bool
}

// spinWindow is how long before a due instant the generator stops
// sleeping and polls the clock instead, yielding between polls: a
// sleeping goroutine wakes late whenever both processors are busy, and
// that lateness would be charged to the server's latency.
const spinWindow = 500 * time.Microsecond

func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// loopStats is how the generator itself behaved: lateMs how late it
// woke for events it was idle before, fifoMs how long overdue events
// waited for a free worker.
type loopStats struct{ lateMs, fifoMs []float64 }

// openLoop offers events on a schedule regardless of how the system
// keeps up. The events form one FIFO; each of the workers takes the
// next one, waits until it is due and calls send with the due instant.
// send times its request from that instant, so a stall delays later
// requests visibly instead of thinning the load.
func openLoop(events []event, workers int, start time.Time, send func(ev event, due time.Time)) loopStats {
	var stats loopStats
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(events) {
					return
				}
				due := start.Add(events[i].At)
				if wait := time.Until(due); wait > 0 {
					sleepUntil(due)
					late := msOf(time.Since(due))
					mu.Lock()
					stats.lateMs = append(stats.lateMs, late)
					mu.Unlock()
				} else {
					mu.Lock()
					stats.fifoMs = append(stats.fifoMs, msOf(-wait))
					mu.Unlock()
				}
				send(events[i], due)
			}
		}()
	}
	wg.Wait()
	return stats
}

// replayJob is one sampled admission waiting for its layer replay.
type replayJob struct {
	snap                 *nfv.Network
	task                 nfv.Task
	resp                 server.AdmitResponse
	sent, got            time.Time
	cloneStart, cloneEnd time.Time
}

func (w *serveMixed) measure(rc *runCtx) error {
	ctx := context.Background()
	mgr := w.srv.Manager()
	open := time.Duration(float64(rc.window) * serveOpenShare)
	closed := rc.window - open
	var status statusCounts
	var mu sync.Mutex // guards every slice below
	var admitMs timed
	var releaseMs, costs []float64
	var waitMs, solveMs, httpSelfUs, encUs, decUs []float64
	var latUntraced, latTraced []float64
	var led ledger
	var jobs []replayJob

	// Open loop over the planned events; latency runs from each event's
	// due instant. The schedule is offered a slice at a time, with a
	// reading of the reference clock between slices while nothing is due.
	state := make([]admitted, len(w.plan.Tasks))
	for i := range state {
		state[i].done = make(chan struct{})
	}
	untracedUntil := time.Now().Add(time.Duration(float64(open) * untracedShare))
	openSl := rc.newSlices(open)
	slice := 0 // the open slice; send reads it, and runs only inside one
	send := func(ev event, due time.Time) {
		st := &state[ev.Arrival]
		if ev.Release {
			<-st.done
			if !st.ok {
				return
			}
			err := w.client.Release(ctx, st.id)
			d := msOf(time.Since(due))
			status.add(err)
			if rc.count(err, "open-loop release") {
				mu.Lock()
				releaseMs = append(releaseMs, d)
				mu.Unlock()
			}
			return
		}

		task := w.plan.Tasks[ev.Arrival]
		job := replayJob{task: task}
		if rc.tr != nil && ev.Arrival%replayEvery == 0 && due.After(untracedUntil) {
			job.cloneStart = time.Now()
			job.snap = mgr.CloneNetwork()
			job.cloneEnd = time.Now()
		}
		job.sent = time.Now()
		resp, err := w.client.Admit(ctx, task)
		job.got = time.Now()
		status.add(err)
		if err == nil {
			st.id, st.ok = resp.ID, true
		}
		close(st.done)
		if !rc.count(err, "open-loop admit") {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		admitMs.add(msOf(job.got.Sub(due)), slice)
		costs = append(costs, resp.Cost)
		waitMs = append(waitMs, resp.WaitMS)
		solveMs = append(solveMs, resp.SolveMS)
		rtt := usOf(job.got.Sub(job.sent))
		httpSelfUs = append(httpSelfUs, rtt-(resp.WaitMS+resp.SolveMS)*1000)
		if rc.tr != nil {
			if due.After(untracedUntil) {
				latTraced = append(latTraced, rtt)
			} else {
				latUntraced = append(latUntraced, rtt)
			}
		}
		if job.snap != nil {
			// Replay waits until the phase is over: run here it would
			// take a processor from the server and delay the generator.
			job.resp = *resp
			jobs = append(jobs, job)
		}
	}
	var lateMs, fifoMs []float64
	events := w.plan.Events
	var offered time.Duration // of the schedule
	for {
		i, until, ok, err := openSl.open()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		slice = i
		offered += until.Sub(openSl.started)
		n := sort.Search(len(events), func(k int) bool { return events[k].At >= offered })
		loop := openLoop(events[:n], clients(), until.Add(-offered), send)
		events = events[n:]
		lateMs = append(lateMs, loop.lateMs...)
		fifoMs = append(fifoMs, loop.fifoMs...)
		time.Sleep(time.Until(until))
		if err := openSl.close(n); err != nil {
			return err
		}
	}

	// Drain: release what the schedule left live, unmeasured.
	scheduled := make([]bool, len(state))
	for _, e := range w.plan.Events {
		if e.Release {
			scheduled[e.Arrival] = true
		}
	}
	for i := range state {
		if state[i].ok && !scheduled[i] {
			if err := w.client.Release(ctx, state[i].id); err != nil {
				rc.fail("drain release %d: %v", i, err)
			}
		}
	}

	for _, j := range jobs {
		// Layer replay on the state the admission saw. The spans the
		// server reported (queue wait, solve and commit) hang under the
		// round trip; the replayed layers hang under those.
		tid := rc.tr.newTrace()
		inQueue := time.Duration((j.resp.WaitMS + j.resp.SolveMS) * float64(time.Millisecond))
		inSolve := time.Duration(j.resp.SolveMS * float64(time.Millisecond))
		root := rc.tr.record(tid, 0, "server.admit", j.sent, j.got)
		ticket := rc.tr.record(tid, root, "queue.ticket", j.got.Add(-inQueue), j.got)
		admit := rc.tr.record(tid, ticket, "dynamic.admit", j.got.Add(-inSolve), j.got)
		rc.tr.record(tid, admit, "nfv.clone", j.cloneStart, j.cloneEnd)
		led.addClone(j.cloneEnd.Sub(j.cloneStart))
		if _, err := led.replaySolve(rc.tr, tid, admit, j.snap, j.task); err != nil {
			rc.fail("%v", err)
		}
		// Each side of the connection encodes one document and decodes
		// the other; the probe pays both of each.
		e0 := time.Now()
		body, _ := json.Marshal(j.task) // plain data always encodes
		out, _ := json.Marshal(j.resp)
		e1 := time.Now()
		var task nfv.Task
		var resp server.AdmitResponse
		if json.Unmarshal(body, &task) != nil || json.Unmarshal(out, &resp) != nil {
			rc.fail("codec probe: round trip failed")
		}
		e2 := time.Now()
		rc.tr.record(tid, root, "server.encode", e0, e1)
		rc.tr.record(tid, root, "server.decode", e1, e2)
		encUs = append(encUs, usOf(e1.Sub(e0)))
		decUs = append(decUs, usOf(e2.Sub(e1)))
	}

	if rc.tr != nil {
		var hz []float64
		for i := 0; i < serveHealthz; i++ {
			t0 := time.Now()
			if err := w.client.Health(ctx); err != nil {
				return fmt.Errorf("healthz: %w", err)
			}
			t1 := time.Now()
			hz = append(hz, usOf(t1.Sub(t0)))
			rc.tr.record(rc.tr.newTrace(), 0, "probe.server.healthz", t0, t1)
		}
		rc.layer["server.healthz_us"] = median(hz)
	}

	// Closed loop: clients() callers each admit the next pool task and
	// release their previous session, for the rest of the window, a slice
	// at a time.
	closedSl := rc.newSlices(closed)
	closedAdmits := 0
	var nextTask atomic.Int64
	prev := make([]dynamic.SessionID, clients())
	for {
		_, until, ok, err := closedSl.open()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var admits atomic.Int64
		var wg sync.WaitGroup
		for c := range prev {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(until) {
					task := w.plan.Pool[int(nextTask.Add(1)-1)%len(w.plan.Pool)]
					resp, err := w.client.Admit(ctx, task)
					status.add(err)
					if !rc.count(err, "closed-loop admit") {
						continue
					}
					admits.Add(1)
					if prev[c] != 0 {
						err := w.client.Release(ctx, prev[c])
						status.add(err)
						rc.count(err, "closed-loop release")
					}
					prev[c] = resp.ID
				}
			}()
		}
		wg.Wait()
		closedAdmits += int(admits.Load())
		if err := closedSl.close(int(admits.Load())); err != nil {
			return err
		}
	}

	rc.report(closedSl, openSl, &admitMs)
	rc.e2e["cost_mean"] = mean(costs)
	rc.samples["closed_loop_admits"] = closedAdmits
	rc.samples["release"] = len(releaseMs)
	rc.ops = len(admitMs.v) + closedAdmits

	rc.layer["e2e.release_p50_ms"] = median(releaseMs)
	rc.layer["gen.late_p99_ms"] = percentile(sortedCopy(lateMs), 0.99)
	rc.layer["gen.fifo_wait_p99_ms"] = percentile(sortedCopy(append(fifoMs, make([]float64, len(lateMs))...)), 0.99)
	rc.layer["queue.wait_p50_ms"] = median(waitMs)
	rc.layer["queue.solve_p50_ms"] = median(solveMs)
	rc.layer["dynamic.admit_us"] = median(solveMs) * 1000
	rc.layer["server.http_self_us"] = median(httpSelfUs)
	rc.layer["server.status_2xx"] = float64(status.ok.Load())
	rc.layer["server.status_409"] = float64(status.conflict.Load())
	rc.layer["server.status_429"] = float64(status.tooMany.Load())
	rc.layer["server.status_5xx"] = float64(status.serverErr.Load() + status.transport.Load())
	managerCounters(rc, mgr)
	queueCounters(rc, w.srv.Queue())
	if rc.tr != nil {
		led.put(rc.layer)
		rc.layer["server.encode_us"] = median(encUs)
		rc.layer["server.decode_us"] = median(decUs)
		commitSelf(rc.layer)
		rc.overhead(latUntraced, latTraced)
	}
	return nil
}

// queueCounters reads the queue's own accounting.
func queueCounters(rc *runCtx, q *queue.Queue) {
	qs := q.Stats()
	if qs.Batches > 0 {
		rc.layer["queue.batch_size_mean"] = float64(qs.Enqueued) / float64(qs.Batches)
	}
	rc.layer["queue.overflow"] = float64(qs.Overflow)
	rc.layer["queue.expired"] = float64(qs.Expired)
}

// commitSelf derives what an admission spends in the manager itself:
// the admit time less what the replayed layers account for — the solve,
// the snapshot clone on admissions that did not inherit one, and the
// WAL append where there is a WAL. Replay runs on a quiet snapshot and
// without the scaffold cache, so this carries their difference to the
// real call and can come out negative (README.md, known limits).
func commitSelf(m map[string]float64) {
	m["dynamic.commit_self_us"] = m["dynamic.admit_us"] - m["core.solve_ms"]*1000 -
		m["nfv.clone_us"]*(1-m["dynamic.coalesced_share"]) - m["wal.append_sync_us"]
}

// managerCounters reads the manager's own accounting of wasted work.
func managerCounters(rc *runCtx, mgr *dynamic.Manager) {
	st := mgr.Stats()
	rc.layer["dynamic.conflicts"] = float64(st.CommitConflicts)
	rc.layer["dynamic.retries"] = float64(st.AdmitRetries)
	rc.layer["dynamic.serialized_fallbacks"] = float64(st.SerializedFallbacks)
	if st.Admitted > 0 {
		rc.layer["dynamic.coalesced_share"] = float64(st.CoalescedSolves) / float64(st.Admitted)
	}
}

// coldStart is a restart of the server: decode the network, boot, and
// answer the first admission.
func (w *serveMixed) coldStart(rc *runCtx) (time.Duration, error) {
	t0 := time.Now()
	net, err := decodeNetwork(w.doc)
	if err != nil {
		return 0, err
	}
	srv, ts, client := startServer(net)
	resp, err := client.Admit(context.Background(), w.plan.Pool[0])
	d := time.Since(t0)
	if err != nil {
		stopServer(srv, ts)
		return 0, fmt.Errorf("first admit: %w", err)
	}
	if err := client.Release(context.Background(), resp.ID); err != nil {
		stopServer(srv, ts)
		return 0, fmt.Errorf("first release: %w", err)
	}
	return d, stopServer(srv, ts)
}

func (w *serveMixed) verify(rc *runCtx) error {
	return liveOracle(rc, w.srv.Manager())
}
