package queue

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/graph"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

// specNet is a line 0-1-…-6 whose five inner nodes are servers with
// room for every VNF. VNF f is cheap to set up on node f+1 only, so a
// session with chain {f} installs exactly there the first time and
// reuses that instance ever after.
func specNet(t *testing.T) *nfv.Network {
	t.Helper()
	const vnfs = 5
	g := graph.New(vnfs + 2)
	for v := 1; v < vnfs+2; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	catalog := make([]nfv.VNF, vnfs)
	for f := range catalog {
		catalog[f] = nfv.VNF{ID: f, Name: "f", Demand: 1}
	}
	net := nfv.NewNetwork(g, catalog)
	for v := 1; v <= vnfs; v++ {
		if err := net.SetServer(v, vnfs); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < vnfs; f++ {
			cost := 100.0
			if v == f+1 {
				cost = 1
			}
			if err := net.SetSetupCost(f, v, cost); err != nil {
				t.Fatal(err)
			}
		}
	}
	return net
}

func specTask(f int) nfv.Task {
	return nfv.Task{Source: 0, Destinations: []int{6}, Chain: nfv.SFC{f}}
}

// parkSolves is a core.Observer that, once armed, parks every solve at
// its start until open closes, announces each of the first n on parked
// and closes full when the n-th arrives.
type parkSolves struct {
	armed   atomic.Bool
	n       int32
	arrived atomic.Int32
	parked  chan struct{}
	full    chan struct{}
	open    chan struct{}
}

func newParkSolves(n int) *parkSolves {
	return &parkSolves{n: int32(n), parked: make(chan struct{}, n), full: make(chan struct{}), open: make(chan struct{})}
}

func (p *parkSolves) OnEvent(e core.Event) {
	if e.Kind != core.EventStage1Start || !p.armed.Load() {
		return
	}
	k := p.arrived.Add(1)
	if k <= p.n {
		p.parked <- struct{}{}
	}
	if k == p.n {
		close(p.full)
	}
	<-p.open
}

// settled returns once every ticket on the line has committed and the
// line has moved past it, which is a moment after the last of them
// resolved: a ticket claimed before then would count as solved ahead.
func settled(q *Queue) {
	l := &q.line
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.tickets) > 0 {
		l.turn.Wait()
	}
}

// heldLine queues tasks behind a plug on a queue with the given number
// of solvers, lets the plug's own drain through, and returns with the
// line empty and a solver parked inside the drain the tasks form. The
// plug is tickets[0].
func heldLine(t *testing.T, m *dynamic.Manager, workers int, plug nfv.Task, tasks []nfv.Task) (*Queue, *gate, []*Ticket) {
	t.Helper()
	g := newGate(m)
	q := New(Config{Depth: len(tasks), Workers: workers, Manager: g.manager})
	tickets := []*Ticket{g.hold(t, q, plug)}
	for _, task := range tasks {
		tk, err := q.Enqueue(context.Background(), task, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	g.resume <- struct{}{}
	if _, err := tickets[0].Wait(context.Background()); err != nil {
		t.Fatalf("plug: %v", err)
	}
	settled(q)
	<-g.parked
	return q, g, tickets
}

// TestQueueSpeculation forces the two extremes of solving ahead. Four
// tickets ride one drain with a solver each, and every solve is parked
// until all four hold their snapshot, so the three behind the head are
// all solved ahead, at the version the head was solved at. In the
// stale script every task installs an instance nobody has yet: the
// head's commit moves the version, so every solve that ran ahead is
// discarded and its ticket solved again at the head of the line. In
// the hit script every instance is already installed: nothing moves
// and all three commit as solved. Either way the outcome is what
// serial admission in dispatch order produces, a discarded solve
// leaves no trace and no conflict behind, and each ticket's one trace
// says which way it went.
func TestQueueSpeculation(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name  string
		reuse bool
		stale uint64
	}{
		{name: "stale", stale: n - 1},
		{name: "hit", reuse: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			park := newParkSolves(n)
			ring := obs.NewTraceBuffer(4 * n)
			mQ := dynamic.NewManager(specNet(t), core.Options{Observer: park}).Trace(ring)
			mS := dynamic.NewManager(specNet(t), core.Options{})
			tasks := make([]nfv.Task, n)
			for f := range tasks {
				tasks[f] = specTask(f)
				if !tc.reuse {
					continue
				}
				for _, m := range []*dynamic.Manager{mQ, mS} {
					if _, err := m.Admit(tasks[f]); err != nil {
						t.Fatal(err)
					}
				}
			}
			q, g, tickets := heldLine(t, mQ, n, specTask(n), tasks)
			reg := obs.NewRegistry()
			q.Instrument(reg)
			before := len(ring.Snapshot())
			park.armed.Store(true)
			g.open()
			<-park.full
			close(park.open)
			for i, tk := range tickets {
				sess, err := tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
				if fresh := len(sess.Result.Embedding.NewInstances); (fresh == 0) != (tc.reuse && i > 0) {
					t.Fatalf("fixture: ticket %d installed %d instances", i, fresh)
				}
				// As in a serial run, whichever solver cloned first: the
				// ticket behind a deploy solves on a fresh snapshot and the
				// ones behind it ride that one.
				if tk.Coalesced() != (tc.reuse && i > 1) {
					t.Errorf("ticket %d: Coalesced = %v", i, tk.Coalesced())
				}
			}
			closeQueue(t, q)

			st := q.Stats()
			if st.Speculated != n-1 || st.Stale != tc.stale {
				t.Errorf("%d solves ran ahead, %d went stale; want %d and %d", st.Speculated, st.Stale, n-1, tc.stale)
			}
			checkConserved(t, st)
			if c := reg.Snapshot().Counters; uint64(c["queue_speculations_total"]) != st.Speculated || uint64(c["queue_speculations_stale_total"]) != st.Stale {
				a, s := c["queue_speculations_total"], c["queue_speculations_stale_total"]
				t.Errorf("registry counts %d ahead, %d stale; Stats %d and %d", a, s, st.Speculated, st.Stale)
			}
			var ahead, stale uint64
			traces := ring.Snapshot()[before:]
			for _, tr := range traces {
				if tr.Speculative {
					ahead++
				}
				if tr.Stale {
					stale++
				}
			}
			if len(traces) != n || ahead != st.Speculated || stale != st.Stale {
				t.Errorf("%d traces, %d speculative, %d stale; want one per ticket and the queue's counts", len(traces), ahead, stale)
			}
			if ms := mQ.Stats(); ms.CommitConflicts != 0 || ms.AdmitRetries != 0 {
				t.Errorf("a discarded solve is not a commit conflict: %+v", ms)
			}
			checkEquivalence(t, mQ, mS, tickets)
		})
	}
}

// TestDrainWaitsForHelper parks both solvers of a two-ticket line
// mid-solve — one on the head, one on the ticket behind it — and
// requires Manager.Drain to wait for both: the shutdown
// snapshot must not be cut while an admission is anywhere between its
// first half and its commit, so when Drain returns both are committed.
func TestDrainWaitsForHelper(t *testing.T) {
	park := newParkSolves(2)
	m := dynamic.NewManager(specNet(t), core.Options{Observer: park})
	q, g, tickets := heldLine(t, m, 2, specTask(4), []nfv.Task{specTask(0), specTask(1)})
	park.armed.Store(true)
	g.open()
	<-park.full

	drained := make(chan int, 1)
	go func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Errorf("Drain: %v", err)
		}
		drained <- m.Stats().Admitted
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned with two admissions mid-solve")
	default:
	}
	close(park.open)
	if got := <-drained; got != len(tickets) {
		t.Errorf("Drain returned with %d of %d admissions committed", got, len(tickets))
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	closeQueue(t, q)
	if st := q.Stats(); st.Speculated != 1 || st.Stale != 1 {
		t.Errorf("stats %+v: the second solve ran ahead of a head that deploys", st)
	}
}
