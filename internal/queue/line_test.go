package queue

import (
	"context"
	"errors"
	"fmt"
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
