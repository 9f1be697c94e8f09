package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/wal"
)

// TestQueueStress hammers the full durable pipeline under -race, at
// every worker count:
// producers enqueue (some with tight deadlines, so expiries interleave
// with solves), released sessions free capacity mid-batch, a flapper
// fails and restores a link through Rebase, and a checkpointer folds
// WAL snapshots — all concurrently. Afterwards the never-lose-a-task
// contract must hold, refcounts must be conserved, and every
// surviving non-degraded session must re-validate.
func TestQueueStress(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { stress(t, workers) })
	}
}

func stress(t *testing.T, workers int) {
	rng := rand.New(rand.NewSource(131))
	net, err := netgen.Generate(netgen.PaperConfig(40, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(t.TempDir(), wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := dynamic.NewManager(net, core.Options{}).AttachWAL(l)

	pool := make([]nfv.Task, 6)
	for i := range pool {
		task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = task
	}
	q := New(Config{
		Depth:   64,
		Workers: workers,
		Manager: func() *dynamic.Manager { return m },
	})

	stop := make(chan struct{})
	var bg sync.WaitGroup

	// Link flapper: fail and restore one edge via the Rebase path, so
	// snapshot generations move under the solvers.
	st := faults.NewState(net)
	edge := net.Graph().Edge(0)
	bg.Add(1)
	go func() {
		defer bg.Done()
		down := false
		for {
			select {
			case <-stop:
				if down {
					_ = st.Apply(faults.Event{Kind: faults.LinkUp, U: edge.U, V: edge.V})
					if deg, err := st.Materialize(m.CloneNetwork()); err == nil {
						m.Rebase(deg)
					}
				}
				return
			default:
			}
			kind := faults.LinkDown
			if down {
				kind = faults.LinkUp
			}
			if err := st.Apply(faults.Event{Kind: kind, U: edge.U, V: edge.V}); err != nil {
				continue
			}
			down = !down
			if deg, err := st.Materialize(m.CloneNetwork()); err == nil {
				m.Rebase(deg)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Checkpointer: fold the WAL while admissions commit.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := m.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()

	const producers = 6
	const perProducer = 10
	var (
		mu                                    sync.Mutex
		admitted, rejected, expired, overflow int
		kept                                  []dynamic.SessionID
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(1000 + p)))
			for i := 0; i < perProducer; i++ {
				task := pool[prng.Intn(len(pool))]
				var deadline time.Time
				if prng.Intn(4) == 0 {
					// Tight enough that some expire in the queue.
					deadline = time.Now().Add(time.Duration(prng.Intn(3)) * time.Millisecond)
				}
				tk, err := q.Enqueue(context.Background(), task, deadline)
				switch {
				case errors.Is(err, ErrQueueFull):
					mu.Lock()
					overflow++
					mu.Unlock()
					continue
				case errors.Is(err, ErrExpired):
					mu.Lock()
					expired++
					mu.Unlock()
					continue
				case err != nil:
					t.Errorf("enqueue: %v", err)
					continue
				}
				sess, err := tk.Wait(context.Background())
				switch {
				case errors.Is(err, ErrExpired):
					mu.Lock()
					expired++
					mu.Unlock()
				case err != nil:
					mu.Lock()
					rejected++
					mu.Unlock()
				case prng.Intn(2) == 0:
					mu.Lock()
					admitted++
					mu.Unlock()
					if rerr := m.Release(sess.ID); rerr != nil {
						t.Errorf("release %d: %v", sess.ID, rerr)
					}
				default:
					mu.Lock()
					admitted++
					kept = append(kept, sess.ID)
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	closeQueue(t, q)

	// Never lose a task: every enqueue attempt has exactly one outcome.
	total := admitted + rejected + expired + overflow
	if total != producers*perProducer {
		t.Errorf("outcomes %d (admitted %d rejected %d expired %d overflow %d), want %d",
			total, admitted, rejected, expired, overflow, producers*perProducer)
	}
	st2 := q.Stats()
	if st2.Depth != 0 {
		t.Errorf("queue not drained: depth %d", st2.Depth)
	}
	if int(st2.Admitted) != admitted || int(st2.Rejected) != rejected {
		t.Errorf("queue counters %+v vs observed admitted %d rejected %d", st2, admitted, rejected)
	}
	if int(st2.Expired+st2.PastDeadline) != expired || int(st2.Overflow) != overflow {
		t.Errorf("queue counters %+v vs observed expired %d overflow %d", st2, expired, overflow)
	}
	checkConserved(t, st2)

	if err := m.VerifyRefs(); err != nil {
		t.Error(err)
	}
	final := m.Network()
	for _, sess := range m.Sessions() {
		if sess.Degraded {
			continue
		}
		if err := conformance.CheckLive(final, sess.Result.Embedding); err != nil {
			t.Errorf("session %d: validate: %v", sess.ID, err)
		}
	}
	// Drain and confirm the network ends clean.
	for _, sess := range m.Sessions() {
		if err := m.Release(sess.ID); err != nil {
			t.Errorf("final release %d: %v", sess.ID, err)
		}
	}
	if m.Active() != 0 || m.LiveInstances() != 0 {
		t.Errorf("leak: %d sessions, %d instances", m.Active(), m.LiveInstances())
	}
}
