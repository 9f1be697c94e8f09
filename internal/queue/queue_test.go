package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

// testWorld builds a small network, a manager on it, and a task
// generator whose chains repeat so batches form signature groups.
func testWorld(t *testing.T, seed int64, opts core.Options) (*dynamic.Manager, func() nfv.Task) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := dynamic.NewManager(net, opts)
	var pool []nfv.Task
	for i := 0; i < 4; i++ {
		task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, task)
	}
	i := 0
	return m, func() nfv.Task {
		task := pool[i%len(pool)]
		i++
		return task
	}
}

func closeQueue(t testing.TB, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// gate is a Config.Manager provider that parks the draining solver:
// every drain of pending that reaches the provider announces itself on
// parked and then blocks until resume yields (one send per drain, or
// close to let every later drain through). One drain runs at a time, so
// tickets enqueued while one is parked form exactly the next, and tests
// assemble batches by event instead of by timer.
type gate struct {
	m      *dynamic.Manager
	parked chan struct{}
	resume chan struct{}
}

func newGate(m *dynamic.Manager) *gate {
	// parked is buffered past any test's drain count, so a solver never
	// blocks announcing a drain nobody is stepping.
	return &gate{m: m, parked: make(chan struct{}, 256), resume: make(chan struct{})}
}

func (g *gate) manager() *dynamic.Manager {
	g.parked <- struct{}{}
	<-g.resume
	return g.m
}

// hold enqueues a plug ticket and returns once a solver is parked
// inside the plug's drain.
func (g *gate) hold(t *testing.T, q *Queue, plug nfv.Task) *Ticket {
	t.Helper()
	tk, err := q.Enqueue(context.Background(), plug, time.Time{})
	if err != nil {
		t.Fatalf("enqueue plug: %v", err)
	}
	<-g.parked
	return tk
}

// open lets the parked batch and every later one through.
func (g *gate) open() { close(g.resume) }

// fakeClock is a settable Config.Now.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// checkConserved asserts the Stats identities of a closed queue: every
// accepted ticket is booked under exactly one terminal outcome, and
// only a solve that ran ahead can have gone stale — each of the tickets
// that reached a solver did so at most once.
func checkConserved(t *testing.T, st Stats) {
	t.Helper()
	if sum := st.Admitted + st.Rejected + st.Expired + st.Closed + st.Unavailable + st.Canceled; st.Enqueued != sum {
		t.Errorf("stats do not balance: enqueued %d, terminal outcomes %d: %+v", st.Enqueued, sum, st)
	}
	if st.Stale > st.Speculated || st.Speculated > st.Enqueued {
		t.Errorf("speculation does not balance: %d stale of %d ahead of %d enqueued", st.Stale, st.Speculated, st.Enqueued)
	}
}

// observerFunc adapts a function to core.Observer.
type observerFunc func(core.Event)

func (f observerFunc) OnEvent(e core.Event) { f(e) }

func TestQueueAdmits(t *testing.T) {
	m, next := testWorld(t, 3, core.Options{})
	reg := obs.NewRegistry()
	q := New(Config{
		Depth:   16,
		Manager: func() *dynamic.Manager { return m },
	}).Instrument(reg)

	const n = 8
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := q.Enqueue(context.Background(), next(), time.Time{})
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		tickets[i] = tk
	}
	orders := make(map[int]bool)
	for i, tk := range tickets {
		sess, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if sess == nil {
			t.Fatalf("ticket %d: nil session without error", i)
		}
		if tk.WaitDuration() < 0 || tk.SolveDuration() <= 0 {
			t.Errorf("ticket %d: wait %v solve %v", i, tk.WaitDuration(), tk.SolveDuration())
		}
		if o := tk.Order(); o < 0 || orders[o] {
			t.Errorf("ticket %d: dispatch order %d invalid or duplicated", i, o)
		} else {
			orders[tk.Order()] = true
		}
	}
	closeQueue(t, q)
	st := q.Stats()
	if st.Enqueued != n || st.Admitted != n {
		t.Errorf("stats = %+v", st)
	}
	checkConserved(t, st)
	if st.Batches == 0 {
		t.Error("no batch recorded")
	}
	if m.Active() != n {
		t.Errorf("manager holds %d sessions, want %d", m.Active(), n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["queue_admitted_total"]; got != n {
		t.Errorf("queue_admitted_total = %d, want %d", got, n)
	}
	if snap.Counters["queue_batches_total"] == 0 {
		t.Error("queue_batches_total stayed zero")
	}
}

// TestQueueWorkConserving pins that no timer stands between an idle
// solver and a ticket: the deprecated BatchWindow field is inert,
// so even an hour of it cannot delay a lone admission.
func TestQueueWorkConserving(t *testing.T) {
	m, next := testWorld(t, 3, core.Options{})
	q := New(Config{
		Depth:       4,
		BatchWindow: time.Hour,
		Manager:     func() *dynamic.Manager { return m },
	})
	defer closeQueue(t, q)
	tk, err := q.Enqueue(context.Background(), next(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatalf("lone ticket on an idle queue: %v", err)
	}
	if st := q.Stats(); st.Batches != 1 {
		t.Errorf("a lone ticket is its own batch, got %d batches", st.Batches)
	}
}

// TestQueuePerTicketCompletion holds a batch of same-signature
// tickets, releases it, and watches from inside the commit critical
// section: when ticket k's commit lands, every ticket dispatched before
// it has its outcome, its done channel is closed and it is on the
// books — completion waits for the ticket's turn, never for the batch,
// however many solvers work the line.
func TestQueuePerTicketCompletion(t *testing.T) {
	const n = 6
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var (
				q       *Queue
				tickets []*Ticket // plug first, then the n held tickets
				commits int       // under the manager lock
			)
			m, next := testWorld(t, 3, core.Options{})
			m.SetCrashHook(func(point string) {
				if point != "admit:post-wal" {
					return
				}
				// This is commit number `commits` in dispatch order.
				for i := 0; i < commits; i++ {
					select {
					case <-tickets[i].done:
					default:
						t.Errorf("ticket %d still pending as ticket %d commits", i, commits)
					}
				}
				if got := q.Stats().Admitted; got != uint64(commits) {
					t.Errorf("as ticket %d commits: Stats().Admitted = %d", commits, got)
				}
				commits++
			})
			g := newGate(m)
			q = New(Config{Depth: 16, Workers: workers, Manager: g.manager})
			task := next()
			tickets = append(tickets, g.hold(t, q, task))
			for i := 0; i < n; i++ {
				tk, err := q.Enqueue(context.Background(), task, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
			g.open()
			for i, tk := range tickets {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
				if tk.Order() != i {
					t.Errorf("ticket %d committed at %d", i, tk.Order())
				}
			}
			closeQueue(t, q)
			if commits != n+1 {
				t.Fatalf("observed %d commits, want %d", commits, n+1)
			}
			if st := q.Stats(); st.Batches != 2 {
				t.Errorf("held tickets must ride one batch behind the plug's, got %d batches", st.Batches)
			}
		})
	}
}

func TestQueueOverflow(t *testing.T) {
	m, next := testWorld(t, 5, core.Options{})
	g := newGate(m)
	q := New(Config{Depth: 2, Manager: g.manager})
	defer closeQueue(t, q)

	// The plug is in a solver's hands, so the two slots are free.
	kept := []*Ticket{g.hold(t, q, next())}
	for i := 0; i < 6; i++ {
		tk, err := q.Enqueue(context.Background(), next(), time.Time{})
		if i >= 2 {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("enqueue %d behind a full queue: err = %v, want ErrQueueFull", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		kept = append(kept, tk)
	}
	if st := q.Stats(); st.Overflow != 4 || !st.Saturated {
		t.Errorf("stats = %+v, want 4 overflows on a saturated queue", st)
	}
	g.open()
	for _, tk := range kept {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Errorf("kept ticket: %v", err)
		}
	}
}

func TestQueueExpired(t *testing.T) {
	m, next := testWorld(t, 7, core.Options{})
	g := newGate(m)
	clock := &fakeClock{now: time.Unix(1000, 0)}
	q := New(Config{Depth: 8, Manager: g.manager, Now: clock.Now})

	// Already past at enqueue: refused synchronously, never a ticket.
	if _, err := q.Enqueue(context.Background(), next(), clock.Now().Add(-time.Second)); !errors.Is(err, ErrExpired) {
		t.Fatalf("past deadline: err = %v, want ErrExpired", err)
	}
	// Expires while queued behind a parked drain: the next drain must
	// drop it before solving.
	plug := g.hold(t, q, next())
	tk, err := q.Enqueue(context.Background(), next(), clock.Now().Add(5*time.Millisecond))
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	clock.advance(10 * time.Millisecond)
	g.open()
	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrExpired) {
		t.Fatalf("queued past deadline: err = %v, want ErrExpired", err)
	}
	if tk.Order() != -1 {
		t.Errorf("expired ticket got dispatch order %d, want -1 (never solved)", tk.Order())
	}
	if _, err := plug.Wait(context.Background()); err != nil {
		t.Fatalf("plug: %v", err)
	}
	closeQueue(t, q)
	st := q.Stats()
	if st.Expired != 1 || st.PastDeadline != 1 || st.Enqueued != 2 {
		t.Errorf("stats = %+v, want 1 in-queue expiry, 1 refused at enqueue, 2 enqueued", st)
	}
	checkConserved(t, st)
}

func TestQueueClosed(t *testing.T) {
	m, next := testWorld(t, 11, core.Options{})
	q := New(Config{
		Depth:   8,
		Manager: func() *dynamic.Manager { return m },
	})

	// Accepted work survives Close: the drain solves it.
	tk, err := q.Enqueue(context.Background(), next(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("ticket enqueued before Close: %v", err)
	}
	if _, err := q.Enqueue(context.Background(), next(), time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Close: err = %v, want ErrClosed", err)
	}
}

func TestQueueCloseBudget(t *testing.T) {
	m, next := testWorld(t, 13, core.Options{})
	g := newGate(m)
	q := New(Config{Depth: 8, Manager: g.manager})
	plug := g.hold(t, q, next()) // the solver is busy past the drain budget
	tk, err := q.Enqueue(context.Background(), next(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	spent, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Close(spent); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close with exhausted budget: err = %v", err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("abandoned ticket: err = %v, want ErrClosed", err)
	}
	// The drain already in a solver's hands still resolves.
	g.open()
	if _, err := plug.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight ticket: %v", err)
	}
	closeQueue(t, q)
	st := q.Stats()
	if st.Closed != 1 || st.Admitted != 1 {
		t.Errorf("stats = %+v, want 1 closed, 1 admitted", st)
	}
	checkConserved(t, st)
}

func TestQueueUnavailable(t *testing.T) {
	q := New(Config{
		Depth:   4,
		Manager: func() *dynamic.Manager { return nil },
	})
	task := nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{0}}
	tk, err := q.Enqueue(context.Background(), task, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("nil manager: err = %v, want ErrUnavailable", err)
	}
	closeQueue(t, q)
	st := q.Stats()
	if st.Unavailable != 1 {
		t.Errorf("stats = %+v, want 1 unavailable", st)
	}
	checkConserved(t, st)
}

// TestQueueOrphans covers the caller that leaves: a ticket whose
// Enqueue context ends while it is still queued is never solved, and
// one whose context ends mid-solve is released the moment its commit
// lands. Either way nobody is left holding a session, in memory or —
// WAL-backed — after a replay.
func TestQueueOrphans(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			// inSolve, when armed, parks the solver at its next event
			// until the test lets go.
			var inSolve, letGo chan struct{}
			block := observerFunc(func(core.Event) {
				if inSolve != nil {
					close(inSolve)
					inSolve = nil
					<-letGo
				}
			})
			m, next := testWorld(t, 19, core.Options{Observer: block})
			dir := t.TempDir()
			var log *wal.Log
			if durable {
				l, _, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				log = l
				m.AttachWAL(log)
			}
			base := m.CloneNetwork()
			g := newGate(m)
			q := New(Config{Depth: 8, Manager: g.manager})

			// Gone before dispatch: dropped when its batch is planned.
			plug := g.hold(t, q, next())
			ctx, cancel := context.WithCancel(context.Background())
			queued, err := q.Enqueue(ctx, next(), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			g.open()
			if sess, err := queued.Wait(context.Background()); sess != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("left while queued: sess=%v err=%v, want context.Canceled", sess, err)
			}
			if queued.Order() != -1 {
				t.Errorf("orphan was dispatched (order %d)", queued.Order())
			}
			plugSess, err := plug.Wait(context.Background())
			if err != nil {
				t.Fatalf("plug: %v", err)
			}

			// Gone mid-solve: the commit lands, then is released.
			started, release := make(chan struct{}), make(chan struct{})
			inSolve, letGo = started, release
			ctx, cancel = context.WithCancel(context.Background())
			solving, err := q.Enqueue(ctx, next(), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			cancel()
			close(release)
			if sess, err := solving.Wait(context.Background()); sess != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("left mid-solve: sess=%v err=%v, want context.Canceled", sess, err)
			}
			if solving.Order() < 0 {
				t.Error("mid-solve orphan should have reached a solver")
			}

			closeQueue(t, q)
			st := q.Stats()
			if st.Canceled != 2 || st.Admitted != 1 {
				t.Errorf("stats = %+v, want 2 canceled, 1 admitted", st)
			}
			checkConserved(t, st)
			if err := m.Release(plugSess.ID); err != nil {
				t.Fatal(err)
			}
			if m.Active() != 0 || m.LiveInstances() != 0 {
				t.Errorf("leak: %d sessions, %d instances", m.Active(), m.LiveInstances())
			}
			if err := m.VerifyRefs(); err != nil {
				t.Error(err)
			}
			if !durable {
				return
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			m2, rr, err := dynamic.Restore(base, l2, rec, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rr.Errors) != 0 {
				t.Errorf("replay errors: %v", rr.Errors)
			}
			if m2.Active() != 0 || m2.LiveInstances() != 0 {
				t.Errorf("replay resurrected %d sessions, %d instances", m2.Active(), m2.LiveInstances())
			}
			if err := m2.VerifyRefs(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPlan pins the scheduler's ordering function: expired and
// canceled out first, earliest deadline first with arrival-order
// tie-break, no deadline last, and signature groups in
// first-occurrence order.
func TestPlan(t *testing.T) {
	now := time.Unix(1000, 0)
	left, cancel := context.WithCancel(context.Background())
	cancel()
	mk := func(seq uint64, ctx context.Context, chain nfv.SFC, deadline time.Time) *Ticket {
		return &Ticket{task: nfv.Task{Chain: chain}, ctx: ctx, seq: seq, deadline: deadline, done: make(chan struct{}), order: -1}
	}
	bg := context.Background()
	a, b := nfv.SFC{1, 2}, nfv.SFC{3}
	tA1 := mk(1, bg, a, time.Time{})             // no deadline
	tB1 := mk(2, bg, b, now.Add(time.Second))    // earliest live deadline
	tA2 := mk(3, bg, a, now.Add(2*time.Second))  // later deadline
	tDead := mk(4, bg, a, now.Add(-time.Second)) // already expired
	tB2 := mk(5, bg, b, now.Add(time.Second))    // same deadline as tB1, later arrival
	tGone := mk(6, left, b, time.Time{})         // caller left
	groups, late, gone := plan([]*Ticket{tA1, tB1, tA2, tDead, tB2, tGone}, now)

	if len(late) != 1 || late[0] != tDead {
		t.Fatalf("late = %v", late)
	}
	if len(gone) != 1 || gone[0] != tGone {
		t.Fatalf("gone = %v", gone)
	}
	// EDF order: tB1, tB2 (tie → seq), tA2, tA1 (no deadline last).
	// First-occurrence signature grouping: sig(b) first, then sig(a).
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("groups = %v, want two of two", groups)
	}
	if groups[0][0] != tB1 || groups[0][1] != tB2 {
		t.Fatal("the earliest deadline's signature leads, and a deadline tie breaks by arrival order")
	}
	if groups[1][0] != tA2 || groups[1][1] != tA1 {
		t.Fatal("no-deadline tickets must sort after deadlined ones")
	}

	// One live ticket — alone or beside dead ones — skips the sort and
	// the grouping, and a dead lone ticket is still dropped.
	for _, batch := range [][]*Ticket{{tA1}, {tDead, tA1, tGone}} {
		dead := len(batch) - 1
		if groups, late, gone = plan(batch, now); len(groups) != 1 || len(groups[0]) != 1 || groups[0][0] != tA1 || len(late)+len(gone) != dead {
			t.Fatalf("one live ticket: groups=%v late=%v gone=%v", groups, late, gone)
		}
	}
	if groups, late, _ = plan([]*Ticket{tDead}, now); len(groups) != 0 || len(late) != 1 {
		t.Fatalf("lone expired ticket: groups=%v late=%v", groups, late)
	}
	if groups, _, gone = plan([]*Ticket{tGone}, now); len(groups) != 0 || len(gone) != 1 {
		t.Fatalf("lone canceled ticket: groups=%v gone=%v", groups, gone)
	}
}
