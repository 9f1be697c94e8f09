package dynamic

import (
	"math/rand"
	"runtime"
	"testing"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

// TestAdmitAllocBudget holds what one admission leaves for the
// garbage collector: a traced manager on serve_mixed's network
// (PaperConfig(100, 2)) running its task mix (5x3, 5x3, 10x5, 10x5,
// 20x7) allocates at most 10 kB in at most 45 objects per admit and
// release (≈7.2 kB in 34 when written). What a session keeps — its
// embedding, result, record and ledger entries — is most of that; the
// snapshot clone copies only deployment state, and the scaffold
// buffers, the solve's state and the trace recorder are recycled, the
// trace's span tree built only when the ring is read. The budget sits
// close enough to catch any one of those coming back: a clone that
// copies its tables reads ≈22 kB, an unpooled recorder ≈13 kB, span
// trees built per admission 62 objects. (The parent of this test
// allocated 49.3 kB in 123 objects.)
func TestAdmitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, err := netgen.Generate(netgen.PaperConfig(100, 2), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	net.Metric()
	rng := rand.New(rand.NewSource(5))
	mix := [][2]int{{5, 3}, {5, 3}, {10, 5}, {10, 5}, {20, 7}}
	tasks := make([]nfv.Task, 256)
	for i := range tasks {
		s := mix[i%len(mix)]
		if tasks[i], err = netgen.GenerateTask(net, rng, s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(net, core.Options{}).Trace(obs.NewTraceBuffer(0))
	cycle := func(task nfv.Task) {
		sess, err := m.Admit(task)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(sess.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up the way serve_mixed does, and past one lap of the trace
	// ring, so the measured cycles reuse what the first ones built.
	for i := 0; i < 2*obs.DefaultTraceCap; i++ {
		cycle(tasks[i%len(tasks)])
	}
	const cycles = 512
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle(tasks[i%len(tasks)])
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / cycles / 1000
	objs := float64(after.Mallocs-before.Mallocs) / cycles
	t.Logf("%.1f kB in %.0f objects per admit+release", kb, objs)
	if kb > 10 || objs > 45 {
		t.Errorf("%.1f kB in %.0f objects per admit+release, budget 10 kB in 45", kb, objs)
	}
}
