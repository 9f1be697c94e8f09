package graph

import (
	"sync"
	"sync/atomic"
)

// spScratch is the reusable per-run arena of a shortest-path
// computation: the Dijkstra heap plus parent, zero-hop and chain
// buffers whose contents never outlive one call. Arenas are recycled
// through a sync.Pool, so steady-state solves stop allocating them;
// buffers are grown to fit and fully reinitialized by each user, never
// trusted to carry state between runs.
//
// Lifecycle rules (also documented in ALGORITHM.md):
//   - acquire with getScratch, release with putScratch, always on the
//     same goroutine call path (deferred or straight-line);
//   - nothing reachable from the scratch may escape: results are
//     copied into freshly allocated return values before release;
//   - the pool is process-global, so concurrent solvers each get
//     their own arena without coordination.
type spScratch struct {
	heap   NodeHeap
	parent []int
	zeros  []int32
	chain  []int
}

var spPool = sync.Pool{New: func() any {
	spPoolNews.Add(1)
	return new(spScratch)
}}

// spPoolGets counts arena acquisitions and spPoolNews the subset that
// allocated a fresh arena (pool empty or GC-cleared); the difference
// is the reuse count. Process-global like the pool itself, exported
// through PoolStats for the telemetry layer.
var spPoolGets, spPoolNews atomic.Int64

// PoolStats reports the shortest-path scratch pool's traffic: total
// acquisitions and how many of them had to allocate a new arena.
// gets-news arenas were served from the pool (reuse).
func PoolStats() (gets, news int64) {
	return spPoolGets.Load(), spPoolNews.Load()
}

// getScratch returns an arena whose parent buffer holds at least n
// entries (n may be 0 when only the heap is needed). The buffer
// contents are undefined.
func getScratch(n int) *spScratch {
	spPoolGets.Add(1)
	sc := spPool.Get().(*spScratch)
	if cap(sc.parent) < n {
		sc.parent = make([]int, n)
	}
	sc.parent = sc.parent[:n]
	return sc
}

func putScratch(sc *spScratch) { spPool.Put(sc) }
