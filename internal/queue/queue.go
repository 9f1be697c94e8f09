// Package queue is the bounded async admission pipeline in front of
// dynamic.Manager: requests enqueue with a deadline and a dispatcher
// drains them in batches, grouping tasks that share a chain signature
// (the same varint key internal/mod memoizes scaffolds under) and
// admitting each group back to back, one admission per ticket. The
// manager hands consecutive admissions the same snapshot clone for as
// long as no commit moves the deployment state, so a signature group
// in the reuse-heavy steady state rides one clone, one metric warm-up
// and one scaffold build while every task still commits individually
// through the optimistic two-phase path.
//
// A batch is a pipeline. Commits land strictly in the planned order —
// a deployed instance costs the next task nothing, so the order is
// part of every cost — but up to Workers solves run at once: while the
// head of the line solves, the tickets behind it are solved ahead of
// their turn on the same snapshot, and each commits when its turn
// comes if the network is still at the exact version it was solved
// at. If not, the result is discarded and the ticket is solved again
// at the head of the line, so at most Workers−1 solves are wasted each
// time the version moves.
//
// The queue is work-conserving: batches form behind a busy solver,
// never behind a clock. The dispatcher takes everything pending the
// instant it has nothing in flight, and whatever arrives while that
// batch solves is the next batch — one ticket when idle, the whole
// backlog under a burst or overload. Each ticket resolves the moment
// its own commit lands, not when its batch ends.
//
// Scheduling is earliest-deadline-first: each drained batch drops
// already-expired tickets and tickets whose caller has left before any
// solve runs, sorts the rest by deadline (no deadline sorts last) with
// the arrival sequence as tie-break, and dispatches signature groups
// in that order. At every Workers the result is bit-identical to
// serialized AdmitCtx calls in the queue's dispatch order — the
// property the equivalence battery in this package pins.
//
// The never-lose-a-task contract: every ticket accepted by Enqueue is
// finished exactly once, in exactly one of {admitted, rejected,
// expired, closed, unavailable, canceled}, and Stats counts each, so
// Enqueued equals their sum once the queue is closed. Tickets are
// owned by exactly one place at any time — the pending slice, a
// draining batch, or Close's abandonment path — and only finish closes
// the ticket's done channel. No session outlives its caller: a ticket
// whose Enqueue context ends before its commit lands is released at
// once and finishes canceled.
package queue

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
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
	// ErrUnavailable fails tickets dispatched while no manager is
	// installed (stateless server, mid-swap restart window).
	ErrUnavailable = errors.New("queue: no session manager")
)

// Config parameterizes a Queue. The zero value of every field has a
// usable default.
type Config struct {
	// Depth bounds the number of queued tickets; enqueues beyond it
	// fail fast with ErrQueueFull. Default 256.
	Depth int
	// Deprecated: BatchWindow is ignored. The dispatcher never waits on
	// a clock; batches form behind a busy solver.
	BatchWindow time.Duration
	// Workers bounds how many tickets of a batch solve at once.
	// Default GOMAXPROCS.
	Workers int
	// Manager supplies the admission manager per batch; indirection
	// keeps the queue correct across the restart harness's hot swap.
	// A nil return fails the batch's tickets with ErrUnavailable.
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
// manager had already taken for an earlier admission — from this batch,
// an earlier one, or a caller that bypassed the queue — instead of a
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
	unavailable         // no manager installed at dispatch, or its WAL refused the commit
	canceled            // the Enqueue context ended first
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"admitted", "rejected", "expired", "closed", "unavailable", "canceled"}

// Stats is a point-in-time queue snapshot. Once the queue is closed,
// Enqueued == Admitted + Rejected + Expired + Closed + Unavailable +
// Canceled; Overflow and PastDeadline count refusals Enqueue never
// accepted. Speculated counts solves that ran ahead of their ticket's
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

// queueMetrics are the optional registry handles (see Instrument).
type queueMetrics struct {
	outcomes           [numOutcomes]*obs.Counter
	enqueued, overflow *obs.Counter
	pastDeadline       *obs.Counter
	batches, coalesced *obs.Counter
	speculated, stale  *obs.Counter
	waitMS             *obs.Histogram
	batchSize          *obs.Histogram
}

// Queue is the bounded admission pipeline. All methods are safe for
// concurrent use.
type Queue struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond
	// pending holds tickets accepted but not yet taken by the
	// dispatcher; its length is the queue depth.
	pending []*Ticket
	closed  bool
	seq     uint64
	next    int // next global dispatch index

	outcomes              [numOutcomes]uint64
	enqueued, overflow    uint64
	pastDeadline, batches uint64
	coalesced             uint64
	speculated, stale     uint64

	met  *queueMetrics
	done chan struct{} // dispatcher exited
}

// New starts a queue and its dispatcher goroutine. Stop it with Close.
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
	go q.dispatch()
	return q
}

// Instrument wires the queue into the registry: queue_depth and
// queue_saturated gauges, the queue_wait_ms histogram (enqueue to
// solve start), the queue_batch_size distribution, and the
// queue_{enqueued,admitted,rejected,expired,closed,unavailable,
// canceled,overflow,past_deadline,batches,coalesced_solves,
// speculations,speculations_stale}_total counters. Returns the queue
// for chaining.
func (q *Queue) Instrument(reg *obs.Registry) *Queue {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.met = &queueMetrics{
		enqueued:     reg.Counter("queue_enqueued_total"),
		overflow:     reg.Counter("queue_overflow_total"),
		pastDeadline: reg.Counter("queue_past_deadline_total"),
		batches:      reg.Counter("queue_batches_total"),
		coalesced:    reg.Counter("queue_coalesced_solves_total"),
		speculated:   reg.Counter("queue_speculations_total"),
		stale:        reg.Counter("queue_speculations_stale_total"),
		waitMS:       reg.Histogram("queue_wait_ms", obs.LatencyBuckets),
		batchSize:    reg.Histogram("queue_batch_size", nil),
	}
	for o, name := range outcomeNames {
		q.met.outcomes[o] = reg.Counter("queue_" + name + "_total")
	}
	reg.GaugeFunc("queue_depth", func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return float64(len(q.pending))
	})
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
		met := q.met
		q.mu.Unlock()
		if met != nil {
			met.pastDeadline.Inc()
		}
		return nil, ErrExpired
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if len(q.pending) >= q.cfg.Depth {
		q.overflow++
		met := q.met
		q.mu.Unlock()
		if met != nil {
			met.overflow.Inc()
		}
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
	met := q.met
	q.cond.Signal()
	q.mu.Unlock()
	if met != nil {
		met.enqueued.Inc()
	}
	return t, nil
}

// Close stops intake and drains: the dispatcher keeps solving already
// accepted work until the pending list empties or ctx expires, at
// which point still-queued tickets fail with ErrClosed. Returns ctx's
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
		// Budget exhausted: abandon whatever the dispatcher has not
		// taken. Tickets already inside a batch still resolve.
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

// finish resolves t exactly once: the outcome is on the books (Stats
// and the registry) before done closes, so a caller woken by its own
// ticket already sees it counted.
func (q *Queue) finish(t *Ticket, o outcome, err error) {
	t.err = err
	q.mu.Lock()
	q.outcomes[o]++
	coalesced := o == admitted && t.coalesced
	if coalesced {
		q.coalesced++
	}
	if t.ahead {
		q.speculated++
	}
	if t.stale {
		q.stale++
	}
	met := q.met
	q.mu.Unlock()
	if met != nil {
		met.outcomes[o].Inc()
		if coalesced {
			met.coalesced.Inc()
		}
		if t.ahead {
			met.speculated.Inc()
		}
		if t.stale {
			met.stale.Inc()
		}
		if t.order >= 0 {
			met.waitMS.ObserveDuration(t.wait)
		}
	}
	close(t.done)
}

// dispatch is the scheduler loop: the moment nothing is in flight it
// takes everything pending as one batch and runs it. What arrives
// meanwhile waits in pending and is the next batch.
func (q *Queue) dispatch() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		batch := q.pending
		q.pending = nil
		q.mu.Unlock()
		if len(batch) == 0 {
			return // closed and drained
		}
		q.runBatch(batch)
	}
}

// plan orders a drained batch: expired tickets (late) and tickets
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

// runBatch resolves one drained batch end to end.
func (q *Queue) runBatch(batch []*Ticket) {
	size := len(batch)
	groups, late, gone := plan(batch, q.cfg.Now())

	q.mu.Lock()
	q.batches++
	met := q.met
	q.mu.Unlock()
	if met != nil {
		met.batches.Inc()
		met.batchSize.Observe(float64(size))
	}
	for _, t := range late {
		q.finish(t, expired, ErrExpired)
	}
	for _, t := range gone {
		q.finish(t, canceled, t.ctx.Err())
	}
	if len(groups) == 0 {
		return
	}

	// The line is the global serialization order, assigned up front:
	// groups in EDF first-occurrence order, tickets in EDF order within
	// each. Commits land in exactly this order.
	l := &line{q: q, mgr: q.cfg.Manager(), tickets: groups[0]}
	for _, g := range groups[1:] {
		l.tickets = append(l.tickets, g...)
	}
	if l.mgr == nil {
		for _, t := range l.tickets {
			q.finish(t, unavailable, ErrUnavailable)
		}
		return
	}
	q.mu.Lock()
	for _, t := range l.tickets {
		t.order = q.next
		q.next++
	}
	q.mu.Unlock()

	// The dispatcher is the first solver and takes the head ticket
	// before any helper exists, so a lone ticket never changes hands.
	l.turn.L = &l.mu
	first := l.claim()
	var helpers sync.WaitGroup
	for w := 1; w < q.cfg.Workers && w < len(l.tickets); w++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			l.work(l.claim())
		}()
	}
	l.work(first)
	helpers.Wait()
}

// line is one batch in flight: its tickets in commit order and how far
// the solvers have got.
type line struct {
	q       *Queue
	mgr     *dynamic.Manager
	tickets []*Ticket

	mu        sync.Mutex
	turn      sync.Cond // committed moved
	claimed   int       // tickets[:claimed] have a solver
	committed int       // tickets[:committed] are finished
}

// claim hands the caller the next ticket nobody is solving, marked
// ahead unless its turn has already come; nil when none is left.
func (l *line) claim() *Ticket {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.claimed == len(l.tickets) {
		return nil
	}
	t := l.tickets[l.claimed]
	t.ahead = l.committed < l.claimed
	l.claimed++
	return t
}

// work is one solver's loop, from ticket t on: solve the ticket under
// its own context and deadline, wait for its turn, settle it, finish
// it, claim the next. A ticket whose turn has come when it is claimed
// is a plain AdmitCtx. Any other is solved ahead and settles at its
// turn only at the exact version it was solved at (see
// dynamic.Manager.Solve), so whichever solver gets there, the line
// commits what one solver working through it alone would have. Each
// solver holds at most one unsettled result, which is the waste bound.
func (l *line) work(t *Ticket) {
	q := l.q
	for t != nil {
		ctx, cancel := t.ctx, context.CancelFunc(func() {})
		if !t.deadline.IsZero() {
			ctx, cancel = context.WithDeadline(t.ctx, t.deadline)
		}
		t.wait = q.cfg.Now().Sub(t.enqueued)
		start := time.Now()
		a := l.mgr.Solve(ctx, t.task, t.ahead)
		l.mu.Lock()
		for l.tickets[l.committed] != t {
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
			q.finish(t, canceled, errors.Join(cerr, l.mgr.Release(sess.ID)))
		default:
			t.sess, t.coalesced = sess, sess.Coalesced
			q.finish(t, admitted, nil)
		}
		l.mu.Lock()
		l.committed++
		l.turn.Broadcast()
		l.mu.Unlock()
		// With a solver on every processor, the caller just answered has
		// none to wake up on until one of them blocks: let it run before
		// the next solve starts.
		if t = l.claim(); t != nil {
			runtime.Gosched()
		}
	}
}
