package queue

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/wal"
)

// TestCommitLogReplaysSerially holds every commit to the solve at its
// commit point, through the WAL. Several goroutines admit and release
// over one WAL-backed manager, half their admissions through a queue
// with two solvers (which solve ahead of their turn) and half through
// the manager directly, with no deadlines, so no solve stops early. The
// tasks share a few chains, so commits keep deploying instances other
// tasks could reuse. The log is then replayed in order onto a clone of
// the base network: every admit record's embedding and cost must be
// what core.Solve returns on the state the records before it describe,
// compared as JSON bytes and cost bits.
func TestCommitLogReplaysSerially(t *testing.T) {
	const workers, ops = 4, 30
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		chains := make([]nfv.SFC, 3)
		for i := range chains {
			task, err := netgen.GenerateTask(net, rng, 2, 2+i)
			if err != nil {
				t.Fatal(err)
			}
			chains[i] = task.Chain
		}
		scripts := make([][]nfv.Task, workers)
		for w := range scripts {
			for i := 0; i < ops; i++ {
				task, err := netgen.GenerateTask(net, rng, 2+rng.Intn(3), 2)
				if err != nil {
					t.Fatal(err)
				}
				task.Chain = chains[rng.Intn(len(chains))]
				scripts[w] = append(scripts[w], task)
			}
		}

		replayed := net.Clone() // the base network, before any admission
		dir := t.TempDir()
		log, _, err := wal.Open(dir, wal.Config{Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		m := dynamic.NewManager(net, core.Options{}).AttachWAL(log)
		q := New(Config{Workers: 2, Manager: func() *dynamic.Manager { return m }})
		var wg sync.WaitGroup
		for w, script := range scripts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var held []dynamic.SessionID
				for i, task := range script {
					var sess *dynamic.Session
					var err error
					if (w+i)%2 == 0 {
						var tk *Ticket
						if tk, err = q.Enqueue(context.Background(), task, time.Time{}); err == nil {
							sess, err = tk.Wait(context.Background())
						}
					} else {
						sess, err = m.Admit(task)
					}
					switch {
					case err == nil:
						held = append(held, sess.ID)
					case !errors.Is(err, dynamic.ErrRejected):
						t.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
					if len(held) > 2 && i%3 == 0 {
						if err := m.Release(held[0]); err != nil {
							t.Errorf("worker %d op %d: %v", w, i, err)
							return
						}
						held = held[1:]
					}
				}
			}()
		}
		wg.Wait()
		if err := q.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}

		log, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		log.Close()
		admits := replaySerially(t, seed, replayed, rec.Records)
		if want := m.Stats().Admitted; admits != want {
			t.Fatalf("seed %d: the log holds %d admits, the manager counts %d", seed, admits, want)
		}
		if !m.Network().SameDeployment(replayed.DeploymentBits()) {
			t.Fatalf("seed %d: the replayed deployment is not the manager's", seed)
		}
		t.Logf("seed %d: %d records, %d admits, stats %+v", seed, len(rec.Records), admits, m.Stats())
	}
}

// replaySerially folds admit and release records into state in log
// order, checking each admit against a fresh solve on the state before
// it, and returns the number of admits.
func replaySerially(t *testing.T, seed int64, state *nfv.Network, records []wal.Record) int {
	t.Helper()
	refs := map[[2]int]int{}
	uses := map[int64][][2]int{}
	admits := 0
	for _, r := range records {
		switch r.Type {
		case wal.RecAdmit:
			admits++
			res, err := core.Solve(state, r.Embedding.Task, core.Options{})
			if err != nil {
				t.Fatalf("seed %d: record %d committed session %d, a solve at its commit point rejects it: %v",
					seed, r.Seq, r.Session, err)
			}
			got, err := json.Marshal(r.Embedding)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res.Embedding)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) || math.Float64bits(r.FinalCost) != math.Float64bits(res.FinalCost) {
				t.Fatalf("seed %d: record %d committed session %d at cost %v; a solve at its commit point costs %v:\n%s\n%s",
					seed, r.Seq, r.Session, r.FinalCost, res.FinalCost, got, want)
			}
			for _, inst := range r.Embedding.NewInstances {
				if err := state.Deploy(inst.VNF, inst.Node); err != nil {
					t.Fatalf("seed %d: record %d: %v", seed, r.Seq, err)
				}
			}
			for _, k := range r.Uses {
				refs[k]++
			}
			uses[r.Session] = r.Uses
		case wal.RecRelease:
			for _, k := range uses[r.Session] {
				if refs[k]--; refs[k] == 0 {
					delete(refs, k)
					if err := state.Undeploy(k[0], k[1]); err != nil {
						t.Fatalf("seed %d: record %d: %v", seed, r.Seq, err)
					}
				}
			}
			delete(uses, r.Session)
		default:
			t.Fatalf("seed %d: record %d: unexpected %q", seed, r.Seq, r.Type)
		}
	}
	return admits
}
