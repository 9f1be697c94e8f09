// Package queue is the bounded async admission pipeline in front of
// dynamic.Manager: requests enqueue with a deadline and Workers
// long-lived solvers work one endless line of tickets, grouping tasks
// that share a chain signature (the same varint key internal/mod
// memoizes scaffolds under) and admitting each group back to back, one
// admission per ticket. The manager hands consecutive admissions the
// same snapshot clone for as long as no commit moves the deployment
// state, so a signature group in the reuse-heavy steady state rides one
// clone, one metric warm-up and one scaffold build while every task
// still commits individually through the optimistic two-phase path.
//
// The line is a pipeline. Commits land strictly in line order — a
// deployed instance costs the next task nothing, so the order is part
// of every cost — but up to Workers solves run at once: a solver takes
// the next ticket nobody is solving, and if the tickets before it have
// not all committed it solves ahead of its turn, on the snapshot they
// were solved on, and commits when its turn comes if the network is
// still at the exact version it was solved at. If not, the result is
// discarded and the ticket is solved again at the head of the line, so
// at most Workers−1 solves are wasted each time the version moves.
//
// The queue is work-conserving: tickets wait behind busy solvers, never
// behind a clock or the end of a batch. A solver that finds every
// ticket of the line claimed drains pending — everything that arrived
// since the last drain — plans it and appends it to the line: one
// ticket when idle, the whole backlog under a burst or overload. One
// drain runs at a time, so arrival order survives however the backlog
// is cut. Each ticket resolves the moment its own commit lands.
//
// Scheduling is earliest-deadline-first within a drain: it drops
// already-expired tickets and tickets whose caller has left before any
// solve runs, sorts the rest by deadline (no deadline sorts last) with
// the arrival sequence as tie-break, and lines up signature groups in
// that order. At every Workers the result is bit-identical to
// serialized AdmitCtx calls in the queue's dispatch order — the
// property the equivalence battery in this package pins.
//
// The never-lose-a-task contract: every ticket accepted by Enqueue is
// finished exactly once, in exactly one of {admitted, rejected,
// expired, closed, unavailable, canceled}, and Stats counts each, so
// Enqueued equals their sum once the queue is closed. Tickets are
// owned by exactly one place at any time — the pending slice, a drain,
// the line, or Close's abandonment path — and only finish closes the
// ticket's done channel. No session outlives its caller: a ticket
// whose Enqueue context ends before its commit lands is released at
// once and finishes canceled.
package queue

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sftree/internal/dynamic"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

var (
	// ErrQueueFull rejects an enqueue when the bounded depth is
	// exhausted; the caller should back off and retry.
	ErrQueueFull = errors.New("queue: full")
	// ErrExpired rejects a task whose deadline passed before any solve
	// ran for it.
	ErrExpired = errors.New("queue: deadline expired before dispatch")
	// ErrClosed rejects enqueues after Close, and fails tickets still
	// queued when the drain budget runs out.
	ErrClosed = errors.New("queue: closed")
	// ErrUnavailable fails tickets whose drain found no manager (the
	// Manager provider returned nil).
	ErrUnavailable = errors.New("queue: no session manager")
)

// Config parameterizes a Queue. The zero value of every field has a
// usable default.
type Config struct {
	// Depth bounds the number of queued tickets; enqueues beyond it
	// fail fast with ErrQueueFull. Default 256.
	Depth int
	// Deprecated: BatchWindow is ignored. No solver ever waits on a
	// clock; tickets queue up behind busy solvers.
	BatchWindow time.Duration
	// Workers is the number of solvers, and so bounds how many tickets
	// solve at once. Default GOMAXPROCS.
	Workers int
	// Manager supplies the admission manager once per drain of pending.
	// The server hands over a fixed one; a provider that blocks and then
	// returns nil is how the crash op of a sim.Script wedges a queue in
	// mid-drain. A nil return fails the drained tickets with
	// ErrUnavailable.
	Manager func() *dynamic.Manager
	// Now is the clock; tests and the fuzz harness pin it. Default
	// time.Now.
	Now func() time.Time
}

// Ticket is one queued admission. The caller blocks on Wait; the
// outcome fields are immutable once the done channel closes.
type Ticket struct {
	task     nfv.Task
	ctx      context.Context
	deadline time.Time
	enqueued time.Time
	seq      uint64
	mgr      *dynamic.Manager // the one its drain resolved

	done      chan struct{}
	sess      *dynamic.Session
	err       error
	wait      time.Duration // enqueue → this task's first solve starts
	solve     time.Duration // from there until its commit lands
	order     int           // global dispatch index (-1 until solved)
	coalesced bool
	ahead     bool // solved before its turn had come
	stale     bool // and that solve was discarded
}

// Wait blocks until the ticket resolves or the context ends. A context
// error abandons only the wait; the admission is abandoned through the
// Enqueue context (a session committed after that one ends is released
// at once).
func (t *Ticket) Wait(ctx context.Context) (*dynamic.Session, error) {
	select {
	case <-t.done:
	case <-ctx.Done():
		select {
		case <-t.done: // resolved as well: the outcome wins
		default:
			return nil, ctx.Err()
		}
	}
	return t.sess, t.err
}

// WaitDuration is the time the task spent queued before its solve
// started; valid after Wait returns without a context error.
func (t *Ticket) WaitDuration() time.Duration { return t.wait }

// SolveDuration runs from the task's solve start to its commit: the
// solve, the wait for its turn if it was solved ahead, a second solve
// if that one went stale, and the commit. Zero for tickets that never
// reached a solver.
func (t *Ticket) SolveDuration() time.Duration { return t.solve }

// Order is the global dispatch index the scheduler assigned, the
// serialization order the equivalence battery replays; -1 for tickets
// that never reached a solver.
func (t *Ticket) Order() int { return t.order }

// Coalesced reports whether the admission committed off a snapshot the
// manager had already taken for an earlier admission — from this queue
// or a caller that bypassed it — instead of a
// fresh clone (dynamic.Session.Coalesced). False for tickets that were
// not admitted.
func (t *Ticket) Coalesced() bool { return t.coalesced }

// outcome is how an accepted ticket ended.
type outcome int

const (
	admitted    outcome = iota
	rejected            // the solver found no feasible embedding
	expired             // deadline passed while queued
	closed              // abandoned by Close's drain budget
	unavailable         // no manager installed at its drain, or its WAL refused the commit
	canceled            // the Enqueue context ended first
	numOutcomes
)

// Stats is a point-in-time queue snapshot. Once the queue is closed,
// Enqueued == Admitted + Rejected + Expired + Closed + Unavailable +
// Canceled; Overflow and PastDeadline count refusals Enqueue never
// accepted. Batches counts drains of pending into the line. Speculated
// counts solves that ran ahead of their ticket's
// turn and Stale those of them that were discarded, so Speculated −
// Stale tickets committed as first solved.
type Stats struct {
	Depth     int  `json:"depth"`
	Capacity  int  `json:"capacity"`
	Saturated bool `json:"saturated"`

	Enqueued     uint64 `json:"enqueued"`
	Admitted     uint64 `json:"admitted"`
	Rejected     uint64 `json:"rejected"`
	Expired      uint64 `json:"expired"`
	Closed       uint64 `json:"closed"`
	Unavailable  uint64 `json:"unavailable"`
	Canceled     uint64 `json:"canceled"`
	Overflow     uint64 `json:"overflow"`
	PastDeadline uint64 `json:"past_deadline"`
	Batches      uint64 `json:"batches"`
	Coalesced    uint64 `json:"coalesced"`
	Speculated   uint64 `json:"speculated"`
	Stale        uint64 `json:"stale"`
}

// Queue is the bounded admission pipeline. All methods are safe for
// concurrent use.
type Queue struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond // pending grew or the queue closed
	// pending holds tickets accepted but not yet drained into the line;
	// its length is the queue depth.
	pending []*Ticket
	closed  bool
	seq     uint64

	// The queue's history, the one book Stats and /metrics read.
	outcomes              [numOutcomes]uint64
	enqueued, overflow    uint64
	pastDeadline, batches uint64
	coalesced             uint64
	speculated, stale     uint64

	// waitMS and batchSize are the registry's histograms, nil until
	// Instrument.
	waitMS, batchSize *obs.Histogram

	// drain is held by the one solver moving pending into the line, from
	// its wait for an arrival until the line has grown: arrivals during a
	// drain are the next drain, in arrival order.
	drain sync.Mutex
	next  int // next global dispatch index; guarded by drain
	line  line

	solvers atomic.Int32  // still running
	done    chan struct{} // every solver exited
}

// New starts a queue and its Workers solver goroutines. Stop it with
// Close.
func New(cfg Config) *Queue {
	if cfg.Depth <= 0 {
		cfg.Depth = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	q := &Queue{cfg: cfg, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	q.line.turn.L = &q.line.mu
	q.solvers.Store(int32(cfg.Workers))
	for w := 0; w < cfg.Workers; w++ {
		go q.solve()
	}
	return q
}

// Instrument wires the queue into the registry: the queue_wait_ms
// histogram (enqueue to solve start) and the queue_batch_size
// distribution, and, read from Stats at every scrape, the queue_depth
// and queue_saturated callback gauges and the
// queue_{enqueued,admitted,rejected,expired,closed,unavailable,
// canceled,overflow,past_deadline,batches,coalesced_solves,
// speculations,speculations_stale}_total counters. Returns the queue
// for chaining.
func (q *Queue) Instrument(reg *obs.Registry) *Queue {
	q.mu.Lock()
	q.waitMS = reg.Histogram("queue_wait_ms", obs.LatencyBuckets)
	q.batchSize = reg.Histogram("queue_batch_size", nil)
	q.mu.Unlock()
	for name, f := range map[string]func(Stats) uint64{
		"enqueued":           func(s Stats) uint64 { return s.Enqueued },
		"admitted":           func(s Stats) uint64 { return s.Admitted },
		"rejected":           func(s Stats) uint64 { return s.Rejected },
		"expired":            func(s Stats) uint64 { return s.Expired },
		"closed":             func(s Stats) uint64 { return s.Closed },
		"unavailable":        func(s Stats) uint64 { return s.Unavailable },
		"canceled":           func(s Stats) uint64 { return s.Canceled },
		"overflow":           func(s Stats) uint64 { return s.Overflow },
		"past_deadline":      func(s Stats) uint64 { return s.PastDeadline },
		"batches":            func(s Stats) uint64 { return s.Batches },
		"coalesced_solves":   func(s Stats) uint64 { return s.Coalesced },
		"speculations":       func(s Stats) uint64 { return s.Speculated },
		"speculations_stale": func(s Stats) uint64 { return s.Stale },
	} {
		reg.CounterFunc("queue_"+name+"_total", func() int64 { return int64(f(q.Stats())) })
	}
	reg.GaugeFunc("queue_depth", func() float64 { return float64(q.Stats().Depth) })
	reg.GaugeFunc("queue_saturated", func() float64 {
		if q.Stats().Saturated {
			return 1
		}
		return 0
	})
	return q
}

// Enqueue accepts a task for batched admission. ctx is the per-task
// base context (request ID, caller cancellation) threaded into the
// solve: once it ends the caller is taken to have left, so the ticket
// is dropped unsolved if still queued, and a session that commits
// afterwards is released at once. deadline, when non-zero, bounds the
// solve and expires the ticket if no solve slot opens in time. Fails
// fast with ErrQueueFull, ErrClosed, or ErrExpired (deadline already
// past).
func (q *Queue) Enqueue(ctx context.Context, task nfv.Task, deadline time.Time) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	now := q.cfg.Now()
	if !deadline.IsZero() && !now.Before(deadline) {
		q.mu.Lock()
		q.pastDeadline++
		q.mu.Unlock()
		return nil, ErrExpired
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if len(q.pending) >= q.cfg.Depth {
		q.overflow++
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	q.seq++
	t := &Ticket{
		task:     task,
		ctx:      ctx,
		deadline: deadline,
		enqueued: now,
		seq:      q.seq,
		done:     make(chan struct{}),
		order:    -1,
	}
	q.pending = append(q.pending, t)
	q.enqueued++
	q.cond.Signal()
	q.mu.Unlock()
	return t, nil
}

// Close stops intake and drains: the solvers keep working already
// accepted work until pending and the line empty or ctx expires, at
// which point tickets still pending fail with ErrClosed. Returns ctx's
// error when the budget ran out, nil on a clean drain. Idempotent.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	select {
	case <-q.done:
		return nil
	case <-ctx.Done():
		// Budget exhausted: abandon whatever no drain has taken. Tickets
		// already on the line still resolve.
		q.mu.Lock()
		rest := q.pending
		q.pending = nil
		q.cond.Broadcast()
		q.mu.Unlock()
		for _, t := range rest {
			q.finish(t, closed, ErrClosed)
		}
		return ctx.Err()
	}
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Depth:     len(q.pending),
		Capacity:  q.cfg.Depth,
		Saturated: len(q.pending) >= q.cfg.Depth,
		Enqueued:  q.enqueued,

		Admitted:     q.outcomes[admitted],
		Rejected:     q.outcomes[rejected],
		Expired:      q.outcomes[expired],
		Closed:       q.outcomes[closed],
		Unavailable:  q.outcomes[unavailable],
		Canceled:     q.outcomes[canceled],
		Overflow:     q.overflow,
		PastDeadline: q.pastDeadline,
		Batches:      q.batches,
		Coalesced:    q.coalesced,
		Speculated:   q.speculated,
		Stale:        q.stale,
	}
}

// finish resolves t exactly once: the outcome is on the books (Stats,
// which the registry reads) before done closes, so a caller woken by
// its own ticket already sees it counted.
func (q *Queue) finish(t *Ticket, o outcome, err error) {
	t.err = err
	q.mu.Lock()
	q.outcomes[o]++
	if o == admitted && t.coalesced {
		q.coalesced++
	}
	if t.ahead {
		q.speculated++
	}
	if t.stale {
		q.stale++
	}
	waitMS := q.waitMS
	q.mu.Unlock()
	if waitMS != nil && t.order >= 0 {
		waitMS.ObserveDuration(t.wait)
	}
	close(t.done)
}

// solve is one solver's life: claim a ticket, work it, until the
// queue is closed and drained.
func (q *Queue) solve() {
	for t := q.claim(); t != nil; t = q.claim() {
		q.work(t)
	}
	if q.solvers.Add(-1) == 0 {
		close(q.done)
	}
}

// claim hands the caller the next ticket of the line nobody is
// solving, marked ahead unless its turn has already come. When every
// ticket is claimed it drains pending into the line, waiting for an
// arrival if it must; while it does, the other idle solvers queue up
// behind drain. Nil once the queue is closed and drained.
func (q *Queue) claim() *Ticket {
	q.drain.Lock()
	defer q.drain.Unlock()
	l := &q.line
	for {
		l.mu.Lock()
		if l.claimed < len(l.tickets) {
			t := l.tickets[l.claimed]
			t.ahead = l.claimed > 0
			l.claimed++
			l.mu.Unlock()
			return t
		}
		l.mu.Unlock()
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return nil
		}
		batch, sizes := q.pending, q.batchSize
		q.pending = nil
		q.batches++
		q.mu.Unlock()
		if sizes != nil {
			sizes.Observe(float64(len(batch)))
		}
		q.extend(batch)
	}
}

// plan orders one drain of pending: expired tickets (late) and tickets
// whose caller has left (gone) come out first — no solve is wasted on
// them — the rest go earliest-deadline-first with arrival order as
// tie-break, then into chain-signature groups in first-occurrence
// order. A function of (batch, now) and the tickets' contexts — the
// fuzz harness replays it. It consumes batch, filtering it in place.
func plan(batch []*Ticket, now time.Time) (groups [][]*Ticket, late, gone []*Ticket) {
	live := batch[:0]
	for _, t := range batch {
		switch {
		case !t.deadline.IsZero() && !now.Before(t.deadline):
			late = append(late, t)
		case t.ctx.Err() != nil:
			gone = append(gone, t)
		default:
			live = append(live, t)
		}
	}
	if len(live) <= 1 {
		// The idle queue's common case: nothing to sort or group.
		if len(live) == 1 {
			groups = [][]*Ticket{live}
		}
		return groups, late, gone
	}
	sort.SliceStable(live, func(i, j int) bool {
		di, dj := live[i].deadline, live[j].deadline
		switch {
		case di.IsZero() && dj.IsZero():
			return live[i].seq < live[j].seq
		case di.IsZero():
			return false
		case dj.IsZero():
			return true
		case di.Equal(dj):
			return live[i].seq < live[j].seq
		default:
			return di.Before(dj)
		}
	})
	index := make(map[string]int)
	for _, t := range live {
		sig := mod.ChainSig(t.task.Chain)
		gi, ok := index[sig]
		if !ok {
			gi = len(groups)
			index[sig] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], t)
	}
	return groups, late, gone
}

// extend plans one drain of pending, answers the tickets no solve is
// owed to, and appends the rest to the line. The caller holds q.drain
// and neither of the other locks: the manager provider may block (a
// wedged crash run, a test gate) and Enqueue must not wait for it.
func (q *Queue) extend(batch []*Ticket) {
	groups, late, gone := plan(batch, q.cfg.Now())
	for _, t := range late {
		q.finish(t, expired, ErrExpired)
	}
	for _, t := range gone {
		q.finish(t, canceled, t.ctx.Err())
	}
	if len(groups) == 0 {
		return
	}
	mgr := q.cfg.Manager()
	if mgr == nil {
		for _, g := range groups {
			for _, t := range g {
				q.finish(t, unavailable, ErrUnavailable)
			}
		}
		return
	}
	// The global serialization order is assigned here, up front: groups
	// in EDF first-occurrence order, tickets in EDF order within each.
	// Commits land in exactly this order.
	l := &q.line
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, g := range groups {
		for _, t := range g {
			t.mgr, t.order = mgr, q.next
			q.next++
		}
		l.tickets = append(l.tickets, g...)
	}
}

// line is every drained ticket that has not committed yet, in commit
// order: tickets[0] is the one whose turn it is.
type line struct {
	mu      sync.Mutex
	turn    sync.Cond // the head committed
	tickets []*Ticket
	claimed int // tickets[:claimed] have a solver
}

// work takes ticket t from claim to commit: solve it under its own
// context and deadline, wait for its turn, settle it, finish it. A
// ticket whose turn has come when it is claimed is a plain AdmitCtx.
// Any other is solved ahead and settles at its turn only at the exact
// version it was solved at (see dynamic.Manager.Solve), so whichever
// solver gets there, the line commits what one solver working through
// it alone would have. Each solver holds at most one unsettled result,
// which is the waste bound.
func (q *Queue) work(t *Ticket) {
	l := &q.line
	ctx, cancel := t.ctx, context.CancelFunc(func() {})
	if !t.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(t.ctx, t.deadline)
	}
	t.wait = q.cfg.Now().Sub(t.enqueued)
	start := time.Now()
	a := t.mgr.Solve(ctx, t.task, t.ahead)
	l.mu.Lock()
	for l.tickets[0] != t {
		l.turn.Wait()
	}
	l.mu.Unlock()
	sess, err := a.Settle()
	cancel()
	t.solve, t.stale = time.Since(start), a.Stale()
	switch cerr := t.ctx.Err(); {
	case errors.Is(err, dynamic.ErrWAL):
		q.finish(t, unavailable, err)
	case err != nil:
		q.finish(t, rejected, err)
	case cerr != nil:
		// The caller left mid-solve and nobody holds the session ID:
		// release it rather than leak it.
		q.finish(t, canceled, errors.Join(cerr, t.mgr.Release(sess.ID)))
	default:
		t.sess, t.coalesced = sess, sess.Coalesced
		q.finish(t, admitted, nil)
	}
	l.mu.Lock()
	l.tickets[0] = nil // the storage behind the head is let go as the line grows
	l.tickets = l.tickets[1:]
	l.claimed--
	waiting := l.claimed < len(l.tickets)
	l.turn.Broadcast()
	l.mu.Unlock()
	// With a solver on every processor, the caller just answered has
	// none to wake up on until one of them blocks: let it run before
	// the next solve starts. A solver with nothing to claim is about to
	// block anyway.
	if waiting {
		runtime.Gosched()
	}
}
