package dynamic

import (
	"math/rand"
	"sync"
	"testing"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

// TestConcurrentAdmitRelease hammers the manager from many goroutines,
// each also scraping its registry mid-flight; run with -race to catch
// synchronization bugs. Every admitted session is released, so the
// network must end clean and the last scrape must agree with Stats.
func TestConcurrentAdmitRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	net, err := netgen.Generate(netgen.PaperConfig(40, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]nfv.Task, 16)
	for i := range tasks {
		task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	reg := obs.NewRegistry()
	m := NewManager(net, core.Options{}).Instrument(reg)

	var wg sync.WaitGroup
	errs := make(chan error, len(tasks))
	for _, task := range tasks {
		wg.Add(1)
		go func(task nfv.Task) {
			defer wg.Done()
			sess, err := m.Admit(task)
			if err != nil {
				return // rejection under races is acceptable
			}
			_ = m.Active() // concurrent reads
			_ = reg.Snapshot()
			if err := m.Release(sess.ID); err != nil {
				errs <- err
			}
		}(task)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("release: %v", err)
	}
	if m.Active() != 0 {
		t.Errorf("%d sessions leaked", m.Active())
	}
	if m.LiveInstances() != 0 {
		t.Errorf("%d instances leaked", m.LiveInstances())
	}
	stats := m.Stats()
	if stats.Admitted+stats.Rejected != len(tasks) {
		t.Errorf("stats = %+v, want %d total", stats, len(tasks))
	}
	snap := reg.Snapshot()
	if snap.Counters["sessions_admitted_total"] != int64(stats.Admitted) ||
		snap.Counters["sessions_rejected_total"] != int64(stats.Rejected) ||
		snap.Counters["admit_retries_total"] != int64(stats.AdmitRetries) ||
		snap.Gauges["sessions_live"] != 0 || snap.Gauges["instances_live"] != 0 {
		t.Errorf("/metrics counters %v and gauges %v disagree with stats %+v", snap.Counters, snap.Gauges, stats)
	}
}
