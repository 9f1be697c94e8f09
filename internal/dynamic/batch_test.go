package dynamic

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// admitBatch runs AdmitBatch and collects the per-task outcomes in
// input order, checking that each is delivered exactly once and in
// sequence.
func admitBatch(t *testing.T, m *Manager, bts []BatchTask) []BatchOutcome {
	t.Helper()
	outs := make([]BatchOutcome, 0, len(bts))
	m.AdmitBatch(context.Background(), bts, func(i int, out BatchOutcome) {
		if i != len(outs) {
			t.Errorf("outcome %d delivered at position %d", i, len(outs))
		}
		outs = append(outs, out)
	})
	if len(outs) != len(bts) {
		t.Fatalf("%d outcomes for %d tasks", len(outs), len(bts))
	}
	return outs
}

// embBytes canonicalizes a session's embedding for bit-level
// comparison.
func embBytes(t *testing.T, sess *Session) string {
	t.Helper()
	blob, err := json.Marshal(sess.Result.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestAdmitBatchMatchesSerialized replays the same task order through
// AdmitBatch on one network and through serialized AdmitCtx calls on
// an identical clone: every per-task decision, session ID, embedding
// byte, cost bit and the final ref ledger must agree. This is the
// in-package half of the queue equivalence battery.
func TestAdmitBatchMatchesSerialized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	netA, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	netB := netA.Clone()
	tasks := make([]nfv.Task, 24)
	for i := range tasks {
		task, err := netgen.GenerateTask(netA, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}

	mA := NewManager(netA, core.Options{})
	mB := NewManager(netB, core.Options{})

	// Batch side: uneven chunk sizes so reuse crosses both mid-batch
	// and batch boundaries.
	var outs []BatchOutcome
	for lo := 0; lo < len(tasks); {
		hi := lo + 1 + lo%5
		if hi > len(tasks) {
			hi = len(tasks)
		}
		bts := make([]BatchTask, 0, hi-lo)
		for _, task := range tasks[lo:hi] {
			bts = append(bts, BatchTask{Task: task})
		}
		outs = append(outs, admitBatch(t, mA, bts)...)
		lo = hi
	}

	for i, task := range tasks {
		sessB, errB := mB.AdmitCtx(context.Background(), task)
		outA := outs[i]
		if (outA.Err == nil) != (errB == nil) {
			t.Fatalf("task %d: batch err %v, serial err %v", i, outA.Err, errB)
		}
		if errB != nil {
			continue
		}
		if outA.Sess.ID != sessB.ID {
			t.Fatalf("task %d: session ID %d vs %d", i, outA.Sess.ID, sessB.ID)
		}
		if a, b := embBytes(t, outA.Sess), embBytes(t, sessB); a != b {
			t.Fatalf("task %d: embeddings diverge:\n%s\n%s", i, a, b)
		}
		if a, b := outA.Sess.Result.FinalCost, sessB.Result.FinalCost; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("task %d: cost %v vs %v", i, a, b)
		}
	}

	sA, sB := mA.Stats(), mB.Stats()
	if sA.Admitted != sB.Admitted || sA.Rejected != sB.Rejected || sA.Active != sB.Active {
		t.Fatalf("stats diverge: batch %+v serial %+v", sA, sB)
	}
	if math.Float64bits(sA.AdmittedCost) != math.Float64bits(sB.AdmittedCost) {
		t.Fatalf("accounting diverges: %v vs %v", sA.AdmittedCost, sB.AdmittedCost)
	}
	refsA, refsB := mA.Refs(), mB.Refs()
	if len(refsA) != len(refsB) {
		t.Fatalf("ref ledgers diverge: %d vs %d instances", len(refsA), len(refsB))
	}
	for key, n := range refsA {
		if refsB[key] != n {
			t.Fatalf("refs[%v] = %d vs %d", key, n, refsB[key])
		}
	}
	checkIntegrity(t, mA)
}

// TestAdmitBatchCoalesces drives a batch of identical tasks: after the
// first deploys the chain's instances, the rest reuse them, so no
// commit bumps the deployment epoch and every follow-up solve runs off
// the inherited snapshot.
func TestAdmitBatchCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(net, core.Options{})
	if _, err := m.Admit(task); err != nil {
		t.Fatalf("seed admit: %v", err)
	}

	bts := []BatchTask{{Task: task}, {Task: task}, {Task: task}}
	outs := admitBatch(t, m, bts)
	coalesced := 0
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("batch task %d: %v", i, out.Err)
		}
		if out.Coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Fatal("no batch admission reused the shared snapshot")
	}
	if got := m.Stats().CoalescedSolves; got != coalesced {
		t.Fatalf("Stats().CoalescedSolves = %d, want %d", got, coalesced)
	}
}

// TestAdmitBatchDeadline pins per-task deadline plumbing: a deadline
// far in the future changes nothing, and outcomes keep AdmitCtx's
// anytime semantics (no spurious rejection from the bounded context).
func TestAdmitBatchDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, err := netgen.Generate(netgen.PaperConfig(20, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(net, core.Options{})
	outs := admitBatch(t, m, []BatchTask{
		{Task: task, Deadline: time.Now().Add(time.Hour)},
	})
	if outs[0].Err != nil {
		t.Fatalf("deadline-bounded admit: %v", outs[0].Err)
	}
	if outs[0].Sess.Result.EarlyStop {
		t.Fatal("a generous deadline must not trigger an early stop")
	}
}
