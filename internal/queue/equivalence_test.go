package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/mod"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// arrival is one scripted enqueue: a task plus an optional deadline
// offset from the script's start.
type arrival struct {
	task     nfv.Task
	deadline time.Duration // 0 = no deadline
}

// makeScript builds a fixed-seed arrival script whose chains repeat
// (tasks are drawn from a small pool, so scaffold lookups hit) and
// whose deadlines mix none, generous, and tight-but-feasible.
func makeScript(t *testing.T, seed int64, n int) (*nfv.Network, []arrival) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]nfv.Task, 5)
	for i := range pool {
		task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = task
	}
	script := make([]arrival, n)
	for i := range script {
		script[i].task = pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 1:
			script[i].deadline = 10 * time.Second
		case 2:
			script[i].deadline = 20 * time.Second
		}
	}
	return net, script
}

func embJSON(t *testing.T, sess *dynamic.Session) string {
	t.Helper()
	blob, err := json.Marshal(sess.Result.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// checkEquivalence replays the tickets' tasks through serialized
// AdmitCtx calls on mS in the queue's recorded dispatch order and
// requires bit-identical admission decisions to what the queue
// produced on mQ — same per-task outcome, session IDs, embedding
// bytes, cost bits, ref ledger and accounting — and both final states
// must pass the conformance validator. Every serial admission must in
// turn equal a core.Solve without a scaffold cache on a clone of the
// state it was admitted at, so what the managers' caches serve is
// held to what a fresh build computes. Both managers run
// core.Options{}.
func checkEquivalence(t *testing.T, mQ, mS *dynamic.Manager, tickets []*Ticket) {
	t.Helper()
	ordered := append([]*Ticket(nil), tickets...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].order < ordered[j].order })
	for i, tk := range ordered {
		if tk.order != i {
			t.Fatalf("dispatch orders are not 0..%d: position %d holds order %d (err %v)", len(ordered)-1, i, tk.order, tk.err)
		}
		snap := mS.Network().Clone()
		sessS, errS := mS.AdmitCtx(context.Background(), tk.task)
		if (tk.err == nil) != (errS == nil) {
			t.Fatalf("order %d: queue err %v, serial err %v", tk.order, tk.err, errS)
		}
		if errS != nil {
			continue
		}
		if tk.sess.ID != sessS.ID {
			t.Fatalf("order %d: session ID %d vs %d", tk.order, tk.sess.ID, sessS.ID)
		}
		if a, b := embJSON(t, tk.sess), embJSON(t, sessS); a != b {
			t.Fatalf("order %d: embeddings diverge:\n%s\n%s", tk.order, a, b)
		}
		if a, b := tk.sess.Result.FinalCost, sessS.Result.FinalCost; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("order %d: cost %v vs %v", tk.order, a, b)
		}
		fresh, err := core.Solve(snap, tk.task, core.Options{})
		if err != nil {
			t.Fatalf("order %d: uncached solve: %v", tk.order, err)
		}
		if a, b := embJSON(t, sessS), embJSON(t, &dynamic.Session{Result: fresh}); a != b {
			t.Fatalf("order %d: admitted and uncached embeddings diverge:\n%s\n%s", tk.order, a, b)
		}
		if a, b := sessS.Result.FinalCost, fresh.FinalCost; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("order %d: admitted cost %v, uncached %v", tk.order, a, b)
		}
	}

	sQ, sS := mQ.Stats(), mS.Stats()
	if sQ.Admitted != sS.Admitted || sQ.Rejected != sS.Rejected || sQ.Active != sS.Active {
		t.Fatalf("stats diverge: queue %+v serial %+v", sQ, sS)
	}
	if math.Float64bits(sQ.AdmittedCost) != math.Float64bits(sS.AdmittedCost) {
		t.Fatalf("accounting diverges: %v vs %v", sQ.AdmittedCost, sS.AdmittedCost)
	}
	refsQ, refsS := mQ.Refs(), mS.Refs()
	if len(refsQ) != len(refsS) {
		t.Fatalf("ref ledgers diverge: %d vs %d", len(refsQ), len(refsS))
	}
	for key, nref := range refsQ {
		if refsS[key] != nref {
			t.Fatalf("refs[%v] = %d vs %d", key, nref, refsS[key])
		}
	}
	for _, m := range []*dynamic.Manager{mQ, mS} {
		for _, sess := range m.Sessions() {
			if err := conformance.CheckLive(m.Network(), sess.Result.Embedding); err != nil {
				t.Errorf("session %d: conformance: %v", sess.ID, err)
			}
		}
		if err := m.VerifyRefs(); err != nil {
			t.Errorf("refs: %v", err)
		}
	}
}

// workerCounts are the parallelism bounds every ordering property in
// this package is held at: the one-solver line, one helper, and more
// solvers than the test machine may have processors.
var workerCounts = []int{1, 2, 4}

// TestQueueEquivalenceBattery is the headline gate: fixed-seed arrival
// scripts replayed through the queue, at every worker count, and
// through serialized AdmitCtx calls on an identical network clone must
// agree bit for bit (see checkEquivalence). Every shape of line is
// covered: a script enqueued on an idle queue is drained in whatever
// small cuts the solvers' pace makes, one enqueued behind a held drain
// rides a single EDF-sorted drain, and a trickle
// script keeps only a few tickets in the queue — each arrival waits for
// the commit of the ticket that many places before it — so that drains
// happen while the line is mid-flight and its tickets come one drain
// at a time.
func TestQueueEquivalenceBattery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		n       int
		held    bool
		trickle int // tickets in the queue at once; 0 = all at once
	}{
		{name: "idle/1", seed: 1, n: 24},
		{name: "held/2", seed: 2, n: 24, held: true},
		{name: "held/3", seed: 3, n: 32, held: true},
		{name: "idle/4", seed: 4, n: 16},
		{name: "trickle/5", seed: 5, n: 24, trickle: 2},
		{name: "trickle/6", seed: 6, n: 32, trickle: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					netQ, script := makeScript(t, tc.seed, tc.n)
					mQ := dynamic.NewManager(netQ, core.Options{})
					mS := dynamic.NewManager(netQ.Clone(), core.Options{})

					g := newGate(mQ)
					if !tc.held {
						g.open()
					}
					q := New(Config{Depth: len(script), Workers: workers, Manager: g.manager})
					start := time.Now()
					tickets := make([]*Ticket, len(script))
					for i, a := range script {
						if tc.trickle > 0 && i >= tc.trickle {
							<-tickets[i-tc.trickle].done
						}
						var deadline time.Time
						if a.deadline != 0 {
							deadline = start.Add(a.deadline)
						}
						tk, err := q.Enqueue(context.Background(), a.task, deadline)
						if err != nil {
							t.Fatalf("enqueue %d: %v", i, err)
						}
						tickets[i] = tk
						if tc.held && i == 0 {
							<-g.parked // the rest queue up behind the first
						}
					}
					if tc.held {
						g.open()
					}
					for i, tk := range tickets {
						if _, err := tk.Wait(context.Background()); err != nil && !errors.Is(err, dynamic.ErrRejected) {
							t.Fatalf("ticket %d: unexpected terminal error %v", i, err)
						}
					}
					closeQueue(t, q)
					st := q.Stats()
					if tc.held && st.Batches != 2 {
						t.Errorf("held script must ride one drain behind its first ticket, got %d", st.Batches)
					}
					if tc.trickle > 0 && int(st.Batches)*tc.trickle < tc.n {
						t.Errorf("no drain of a trickle script finds more than %d tickets, yet %d drains took %d", tc.trickle, st.Batches, tc.n)
					}
					if workers == 1 && st.Speculated != 0 {
						t.Errorf("one solver has nobody to run ahead of, yet %d solves did", st.Speculated)
					}
					checkConserved(t, st)
					checkEquivalence(t, mQ, mS, tickets)
				})
			}
		})
	}
}

// TestQueueOrderAcrossSplit enqueues 32 same-signature no-deadline
// tickets while a drain is parked, either all behind one
// drain or in two halves that land in different batches: with nothing
// for EDF to reorder they must dispatch in arrival order whichever way
// the backlog was cut, and the outcome must still equal serialized
// admission.
func TestQueueOrderAcrossSplit(t *testing.T) {
	for _, halves := range [][]int{{32}, {16, 16}} {
		t.Run(fmt.Sprint(halves), func(t *testing.T) {
			netQ, script := makeScript(t, 5, 1)
			task := script[0].task
			mQ := dynamic.NewManager(netQ, core.Options{})
			mS := dynamic.NewManager(netQ.Clone(), core.Options{})
			g := newGate(mQ)
			q := New(Config{Depth: 64, Manager: g.manager})

			tickets := []*Ticket{g.hold(t, q, task)}
			for h, n := range halves {
				if h > 0 {
					// Let the held batch go; what queued up behind it is
					// the next batch, and is held mid-batch in turn.
					g.resume <- struct{}{}
					<-g.parked
				}
				for i := 0; i < n; i++ {
					tk, err := q.Enqueue(context.Background(), task, time.Time{})
					if err != nil {
						t.Fatal(err)
					}
					tickets = append(tickets, tk)
				}
			}
			g.open()
			for i, tk := range tickets {
				if _, err := tk.Wait(context.Background()); err != nil && !errors.Is(err, dynamic.ErrRejected) {
					t.Fatalf("ticket %d: %v", i, err)
				}
				if tk.Order() != i {
					t.Errorf("ticket %d dispatched at %d: arrival order lost", i, tk.Order())
				}
			}
			closeQueue(t, q)
			if st := q.Stats(); int(st.Batches) != 1+len(halves) {
				t.Errorf("want the plug's batch plus %d, got %d batches", len(halves), st.Batches)
			}
			checkEquivalence(t, mQ, mS, tickets)
		})
	}
}

// TestQueueEDFAcrossChains queues x3, y2 and x1 behind a held plug —
// x tickets share one chain, y has another, and the digit is the
// deadline's rank, all hours out — so one drain plans all three. The
// line must take them earliest deadline first, x1, y2, x3, whichever
// chains they share, and the outcome must equal serialized admission
// in that order.
func TestQueueEDFAcrossChains(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(57))
			netQ, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
			if err != nil {
				t.Fatal(err)
			}
			var tasks [4]nfv.Task // plug, x, y, x again on another source
			for i := range tasks {
				if tasks[i], err = netgen.GenerateTask(netQ, rng, 3, 3); err != nil {
					t.Fatal(err)
				}
			}
			tasks[3].Chain = tasks[1].Chain
			if slices.Equal(tasks[1].Chain, tasks[2].Chain) {
				t.Fatal("x and y must differ in chain")
			}
			mQ := dynamic.NewManager(netQ, core.Options{})
			mS := dynamic.NewManager(netQ.Clone(), core.Options{})
			g := newGate(mQ)
			q := New(Config{Depth: 8, Workers: workers, Manager: g.manager})

			tickets := []*Ticket{g.hold(t, q, tasks[0])}
			start := time.Now()
			for _, a := range []struct {
				task  nfv.Task
				hours time.Duration
			}{{tasks[1], 3}, {tasks[2], 2}, {tasks[3], 1}} { // x3, y2, x1
				tk, err := q.Enqueue(context.Background(), a.task, start.Add(a.hours*time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
			g.open()
			for i, tk := range tickets {
				if _, err := tk.Wait(context.Background()); err != nil && !errors.Is(err, dynamic.ErrRejected) {
					t.Fatalf("ticket %d: %v", i, err)
				}
			}
			closeQueue(t, q)
			x3, y2, x1 := tickets[1], tickets[2], tickets[3]
			if x1.Order() != 1 || y2.Order() != 2 || x3.Order() != 3 {
				t.Errorf("orders x1=%d y2=%d x3=%d, want 1 2 3", x1.Order(), y2.Order(), x3.Order())
			}
			checkEquivalence(t, mQ, mS, tickets)
		})
	}
}

// TestQueueBurstRevisit runs the burst_shared shape through the queue:
// bursts of one chain signature from a few origins, each released in
// full before the next is offered, so every burst starts from the
// deployment the first one started from and walks the states it
// walked. Each burst must agree with serialized, and so with uncached,
// admission bit for bit (checkEquivalence), and every later burst must
// find scaffolds the first one left behind: it hits, and on the
// one-solver line, whose states repeat exactly, it misses fewer times
// than the first burst did. (More solvers run ahead at snapshots that
// depend on timing, so their miss counts vary from run to run.)
func TestQueueBurstRevisit(t *testing.T) {
	const bursts, size, origins = 3, 16, 3
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(48))
			netQ, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := netgen.GenerateTask(netQ, rng, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			tasks := make([]nfv.Task, size)
			for i := range tasks {
				task := nfv.Task{Source: rng.Intn(origins), Chain: proto.Chain}
				for _, v := range rng.Perm(netQ.NumNodes()) {
					if v != task.Source && len(task.Destinations) < 4 {
						task.Destinations = append(task.Destinations, v)
					}
				}
				tasks[i] = task
			}
			mQ := dynamic.NewManager(netQ, core.Options{})
			mS := dynamic.NewManager(netQ.Clone(), core.Options{})
			var firstMisses int64
			for b := 0; b < bursts; b++ {
				q := New(Config{Depth: size, Workers: workers, Manager: func() *dynamic.Manager { return mQ }})
				hits0, misses0 := mod.CacheStats()
				tickets := make([]*Ticket, size)
				for i, task := range tasks {
					if tickets[i], err = q.Enqueue(context.Background(), task, time.Time{}); err != nil {
						t.Fatal(err)
					}
				}
				for i, tk := range tickets {
					if _, err := tk.Wait(context.Background()); err != nil && !errors.Is(err, dynamic.ErrRejected) {
						t.Fatalf("burst %d ticket %d: %v", b, i, err)
					}
				}
				closeQueue(t, q)
				hits1, misses1 := mod.CacheStats()
				hits, misses := hits1-hits0, misses1-misses0
				t.Logf("burst %d: %d scaffold hits, %d misses", b, hits, misses)
				checkEquivalence(t, mQ, mS, tickets)
				for _, tk := range tickets {
					if tk.err != nil {
						continue
					}
					if err := mQ.Release(tk.sess.ID); err != nil {
						t.Fatal(err)
					}
					if err := mS.Release(tk.sess.ID); err != nil {
						t.Fatal(err)
					}
				}
				switch {
				case b == 0:
					firstMisses = misses
				case hits == 0 || workers == 1 && misses >= firstMisses:
					t.Errorf("burst %d revisits the first burst's deployments yet missed %d times (the first %d) and hit %d", b, misses, firstMisses, hits)
				}
			}
		})
	}
}
