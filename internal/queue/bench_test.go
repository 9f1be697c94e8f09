package queue

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/mod"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// BenchmarkQueueBurst is the admission pipeline's local yardstick: one
// iteration enqueues a 32-ticket burst of one chain signature from four
// origins on a 100-node network, waits for every ticket and releases
// the sessions, so each burst meets the same deployment state. Beside
// ns/op it reports the share of solves that ran ahead of their turn,
// the share of those that went stale, and the share of scaffold
// lookups that hit (hit/op; a burst finds the deployments the one
// before it reused scaffolds at). Compare -cpu 1 with -cpu 2,
// interleaved: a shared machine changes speed by half from minute to
// minute.
func BenchmarkQueueBurst(b *testing.B) {
	const burst, origins, dests, chain = 32, 4, 10, 5
	rng := rand.New(rand.NewSource(1))
	net, err := netgen.Generate(netgen.PaperConfig(100, 2), rng)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := netgen.GenerateTask(net, rng, dests, chain)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]nfv.Task, burst)
	for i := range tasks {
		perm := rng.Perm(net.NumNodes())
		task := nfv.Task{Source: perm[0] % origins, Chain: proto.Chain}
		for _, v := range perm {
			if v != task.Source && len(task.Destinations) < dests {
				task.Destinations = append(task.Destinations, v)
			}
		}
		tasks[i] = task
	}
	m := dynamic.NewManager(net, core.Options{})
	q := New(Config{Depth: burst, Manager: func() *dynamic.Manager { return m }})
	ctx := context.Background()
	tickets := make([]*Ticket, burst)
	b.ResetTimer()
	hits0, misses0 := mod.CacheStats()
	for n := 0; n < b.N; n++ {
		for i, task := range tasks {
			if tickets[i], err = q.Enqueue(ctx, task, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		for _, tk := range tickets {
			if err := m.Release(tk.sess.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	hits1, misses1 := mod.CacheStats()
	closeQueue(b, q)
	st := q.Stats()
	b.ReportMetric(float64(st.Speculated)/float64(st.Admitted), "ahead/op")
	if hits, misses := hits1-hits0, misses1-misses0; hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit/op")
	}
	if st.Speculated > 0 {
		b.ReportMetric(float64(st.Stale)/float64(st.Speculated), "stale/ahead")
	}
}
