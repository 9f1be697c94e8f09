package queue

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// fuzzWorld is built once: a pristine network plus a task pool with
// repeating signatures. Each fuzz execution runs against a fresh
// clone, so executions are independent and deterministic.
type fuzzWorld struct {
	net  *nfv.Network
	pool []nfv.Task
}

var fuzzBase = func() fuzzWorld {
	rng := rand.New(rand.NewSource(17))
	net, err := netgen.Generate(netgen.PaperConfig(20, 2), rng)
	if err != nil {
		panic(err)
	}
	pool := make([]nfv.Task, 3)
	for i := range pool {
		task, err := netgen.GenerateTask(net, rng, 2+i%2, 1+i%2)
		if err != nil {
			panic(err)
		}
		pool[i] = task
	}
	return fuzzWorld{net: net, pool: pool}
}()

// FuzzQueueSchedule holds the never-lose-a-task contract over
// arbitrary arrival/deadline/signature/batch-shape interleavings:
// every enqueued task terminates in exactly one of {admitted,
// rejected, expired, canceled}, the queue's books balance, session IDs
// are never double-committed, and the manager's ledger survives a
// refcount audit afterwards.
//
// Input encoding: byte 0 picks the batch shape (odd: everything
// queues up behind a held plug ticket and rides one batch; even: the
// idle solvers cut drains at their own pace) and, above that bit,
// how many solvers work a batch (1, 2 or 4), byte 1 the queue depth;
// each following byte pair is one enqueue — the first byte
// picks the task (signature), the second its class (no deadline,
// caller already gone, deadline already past, tight, generous).
func FuzzQueueSchedule(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 2, 3, 0, 5})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 1, 4, 2, 4, 0, 3})
	f.Add([]byte{5, 8, 0, 7, 1, 3, 2, 0, 1, 5, 0, 4, 2, 6})
	f.Add([]byte{1, 1, 0, 0, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		baseNet, pool := fuzzBase.net, fuzzBase.pool
		held := data[0]%2 == 1
		workers := workerCounts[int(data[0]/2)%len(workerCounts)]
		depth := 1 + int(data[1])%16
		ops := data[2:]
		if len(ops) > 48 {
			ops = ops[:48]
		}

		m := dynamic.NewManager(baseNet.Clone(), core.Options{})
		g := newGate(m)
		q := New(Config{Depth: depth, Workers: workers, Manager: g.manager})
		var tickets []*Ticket
		if held {
			tickets = append(tickets, g.hold(t, q, pool[0]))
		} else {
			g.open()
		}

		gone, cancel := context.WithCancel(context.Background())
		cancel()
		now := time.Now()
		var overflow, pastDeadline int
		for i := 0; i+1 < len(ops); i += 2 {
			task := pool[int(ops[i])%len(pool)]
			ctx := context.Background()
			var deadline time.Time
			switch int(ops[i+1]) % 8 {
			case 2:
				ctx = gone
			case 3:
				deadline = now.Add(-time.Second) // already past
			case 4:
				deadline = time.Now().Add(time.Duration(1+int(ops[i+1])%3) * time.Millisecond)
			case 5, 6, 7:
				deadline = now.Add(time.Minute)
			}
			tk, err := q.Enqueue(ctx, task, deadline)
			switch {
			case errors.Is(err, ErrQueueFull):
				overflow++
			case errors.Is(err, ErrExpired):
				pastDeadline++
			case err != nil:
				t.Fatalf("enqueue: %v", err)
			default:
				tickets = append(tickets, tk)
			}
		}
		if held {
			g.open()
		}

		var admitted, rejected, expired, canceled int
		seen := make(map[dynamic.SessionID]bool)
		for i, tk := range tickets {
			sess, err := tk.Wait(context.Background())
			switch {
			case err == nil && sess != nil:
				admitted++
				if seen[sess.ID] {
					t.Fatalf("ticket %d: session %d double-committed", i, sess.ID)
				}
				seen[sess.ID] = true
			case errors.Is(err, ErrExpired):
				expired++
				if tk.Order() != -1 {
					t.Fatalf("ticket %d expired but was dispatched (order %d)", i, tk.Order())
				}
			case errors.Is(err, context.Canceled):
				canceled++
				if tk.Order() != -1 {
					t.Fatalf("ticket %d was canceled before enqueue but was dispatched (order %d)", i, tk.Order())
				}
			case errors.Is(err, dynamic.ErrRejected):
				rejected++
			default:
				t.Fatalf("ticket %d: outcome outside {admitted, rejected, expired, canceled}: sess=%v err=%v", i, sess, err)
			}
		}
		closeQueue(t, q)

		st := q.Stats()
		checkConserved(t, st)
		if int(st.Enqueued) != len(tickets) {
			t.Fatalf("%d tickets, %d enqueued", len(tickets), st.Enqueued)
		}
		if int(st.Admitted) != admitted || int(st.Rejected) != rejected || int(st.Expired) != expired || int(st.Canceled) != canceled {
			t.Fatalf("queue counters %+v vs observed %d/%d/%d/%d", st, admitted, rejected, expired, canceled)
		}
		if int(st.PastDeadline) != pastDeadline || int(st.Overflow) != overflow {
			t.Fatalf("refusal counters %+v vs observed %d/%d", st, pastDeadline, overflow)
		}
		ms := m.Stats()
		if ms.Admitted != admitted || ms.Active != admitted {
			t.Fatalf("manager admitted %d active %d, want %d", ms.Admitted, ms.Active, admitted)
		}
		if err := m.VerifyRefs(); err != nil {
			t.Fatal(err)
		}
	})
}
