package queue

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/nfv"
)

// TestQueueLineStaysOpen is the open line: a ticket that arrives while
// the head of the line is inside its solve does not wait for it. With
// a second solver it is drained and claimed at once, solved ahead of
// its turn, and commits behind the head; with one solver it waits in
// pending.
func TestQueueLineStaysOpen(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			park := newParkSolves(workers)
			park.armed.Store(true)
			m := dynamic.NewManager(specNet(t), core.Options{Observer: park})
			q := New(Config{Depth: 4, Workers: workers, Manager: func() *dynamic.Manager { return m }})
			head, err := q.Enqueue(context.Background(), specTask(0), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			<-park.parked // the head is inside its solve
			second, err := q.Enqueue(context.Background(), specTask(1), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			<-park.full // every solver is inside a solve
			select {
			case <-head.done:
				t.Fatal("the head resolved while parked")
			default:
			}
			if depth := q.Stats().Depth; depth != 2-workers {
				t.Errorf("%d tickets pending behind %d parked solvers", depth, workers)
			}
			close(park.open)
			first, err := head.Wait(context.Background())
			if err != nil {
				t.Fatalf("head: %v", err)
			}
			behind, err := second.Wait(context.Background())
			if err != nil {
				t.Fatalf("second: %v", err)
			}
			if head.Order() != 0 || second.Order() != 1 || first.ID >= behind.ID {
				t.Errorf("head dispatched at %d as session %d, second at %d as session %d: arrival order lost",
					head.Order(), first.ID, second.Order(), behind.ID)
			}
			closeQueue(t, q)
			st := q.Stats()
			// The head deploys, so a solve that ran beside it went stale.
			if ahead := uint64(workers - 1); st.Speculated != ahead || st.Stale != ahead || st.Batches != 2 {
				t.Errorf("stats %+v: want two drains and %d solves ahead", st, ahead)
			}
			checkConserved(t, st)
		})
	}
}

// TestQueueRunAheadBound parks the head of a six-ticket line inside its
// solve. With two solvers the second solves 2·Workers−1 = 3 tickets
// ahead of their turn, parking each result, and then waits: at most
// 2·Workers tickets are claimed and unsettled. On release all six
// commit in dispatch order. The head deploys and every ticket behind it
// only reuses instances already up, so exactly the three solved beside
// the parked head go stale: a state move discards at most 2·Workers−1
// solves. With one solver nothing runs ahead.
func TestQueueRunAheadBound(t *testing.T) {
	chains := []int{0, 1, 1, 2, 2, 3} // no deadlines: line order is arrival order
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			park := newParkSolves(1)
			var solves atomic.Int32
			mQ := dynamic.NewManager(specNet(t), core.Options{Observer: observerFunc(func(e core.Event) {
				if e.Kind == core.EventStage1Start {
					solves.Add(1)
				}
				park.OnEvent(e)
			})})
			mS := dynamic.NewManager(specNet(t), core.Options{})
			for f := 1; f <= 3; f++ {
				for _, m := range []*dynamic.Manager{mQ, mS} {
					if _, err := m.Admit(specTask(f)); err != nil {
						t.Fatal(err)
					}
				}
			}
			solves.Store(0)
			q := New(Config{Depth: len(chains), Workers: workers, Manager: func() *dynamic.Manager { return mQ }})
			park.armed.Store(true)
			tickets := make([]*Ticket, len(chains))
			for i, f := range chains {
				tk, err := q.Enqueue(context.Background(), specTask(f), time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				tickets[i] = tk
				if i == 0 {
					<-park.parked // the head is inside its solve
					park.armed.Store(false)
				}
			}
			ahead := 0
			if workers > 1 {
				ahead = 2*workers - 1
			}
			parked := func() (claimed, parked int) {
				l := &q.line
				l.mu.Lock()
				defer l.mu.Unlock()
				for _, tk := range l.tickets {
					if tk.attempt != nil {
						parked++
					}
				}
				return l.claimed, parked
			}
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if _, p := parked(); p >= ahead {
					break
				}
			}
			time.Sleep(20 * time.Millisecond) // room for a solver to run past the bound
			if claimed, p := parked(); claimed != ahead+1 || p != ahead || int(solves.Load()) != ahead+1 {
				t.Fatalf("head parked: %d claimed, %d results parked, %d solves; want %d, %d and %d",
					claimed, p, solves.Load(), ahead+1, ahead, ahead+1)
			}
			if depth := q.Stats().Depth; workers == 1 && depth != len(chains)-1 {
				t.Errorf("%d tickets pending behind the one parked solver, want %d", depth, len(chains)-1)
			}
			close(park.open)
			var last uint64
			for i, tk := range tickets {
				sess, err := tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
				if tk.Order() != i || (i > 0 && uint64(sess.ID) <= last) {
					t.Errorf("ticket %d dispatched at %d as session %d after session %d", i, tk.Order(), sess.ID, last)
				}
				last = uint64(sess.ID)
				if beside := i > 0 && i <= ahead; tk.stale != beside || (beside && !tk.ahead) {
					t.Errorf("ticket %d: ahead %v, stale %v; want stale exactly beside the parked head", i, tk.ahead, tk.stale)
				}
			}
			closeQueue(t, q)
			st := q.Stats()
			if st.Stale != uint64(ahead) || (workers == 1 && st.Speculated != 0) {
				t.Errorf("stats %+v: want %d stale, nothing ahead at one solver", st, ahead)
			}
			checkConserved(t, st)
			checkEquivalence(t, mQ, mS, tickets)
		})
	}
}

// TestQueueCloseBudgetMidLine runs out of drain budget with tickets in
// every place one can be: solvers parked inside solves, a ticket on the
// line that nobody has claimed, and arrivals still pending. Pending
// ones fail ErrClosed at once; everything on the line resolves once
// the solvers move, and the solvers exit.
func TestQueueCloseBudgetMidLine(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			park := newParkSolves(workers)
			m := dynamic.NewManager(specNet(t), core.Options{Observer: park})
			q, g, line := heldLine(t, m, workers, specTask(4), []nfv.Task{specTask(0), specTask(1), specTask(2)})
			park.armed.Store(true)
			g.open()
			<-park.full // three tickets on the line, fewer solvers, all parked
			var pending []*Ticket
			for i := 0; i < 2; i++ {
				tk, err := q.Enqueue(context.Background(), specTask(3), time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, tk)
			}
			spent, cancel := context.WithCancel(context.Background())
			cancel()
			if err := q.Close(spent); !errors.Is(err, context.Canceled) {
				t.Fatalf("Close with exhausted budget: err = %v", err)
			}
			for i, tk := range pending {
				if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrClosed) {
					t.Errorf("pending ticket %d: err = %v, want ErrClosed", i, err)
				}
			}
			close(park.open)
			for i, tk := range line {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Errorf("line ticket %d: %v", i, err)
				}
			}
			closeQueue(t, q) // returns once every solver has exited
			st := q.Stats()
			if st.Closed != 2 || int(st.Admitted) != len(line) || st.Depth != 0 {
				t.Errorf("stats = %+v, want 2 closed, %d admitted", st, len(line))
			}
			checkConserved(t, st)
			if m.Active() != len(line) {
				t.Errorf("%d sessions live, want %d", m.Active(), len(line))
			}
		})
	}
}
