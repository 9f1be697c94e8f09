package mod

import (
	"sync"
	"sync/atomic"

	"sftree/internal/nfv"
)

// ChainSig returns a compact signature of an SFC: the chain's VNF ids
// in order, rendered into a byte string usable as a map key. Two tasks
// with equal signatures embed over the identical overlay skeleton.
func ChainSig(chain nfv.SFC) string {
	// Varint-ish little scheme keeps the common case (ids < 128) at one
	// byte per VNF without pulling in encoding/binary at call sites.
	buf := make([]byte, 0, 2*len(chain))
	for _, f := range chain {
		u := uint(f)
		for u >= 0x80 {
			buf = append(buf, byte(u)|0x80)
			u >>= 7
		}
		buf = append(buf, byte(u))
	}
	return string(buf)
}

// cacheKey identifies one reusable overlay: the (source, chain) pair
// it embeds plus the network version it was built against. ID is the
// network incarnation (process-unique, shared by clones), gen the
// graph generation (topology + metric identity), epoch the deployment
// epoch (setup costs of the virtual arcs reflect deployment state).
type cacheKey struct {
	source int
	sig    string
	id     uint64
	gen    uint64
	epoch  uint64
}

// cacheEntry is a singleflight slot: the first caller builds, every
// concurrent same-key caller waits on the Once and shares the result.
// refs counts the cache's own reference, held until the entry is
// evicted, plus one per Get not yet released; the last one out
// recycles the overlay. Every reference is taken under the cache lock,
// before the build, and dropped only after it, so the overlay is never
// recycled while a build or a holder is still at it.
type cacheEntry struct {
	once sync.Once
	m    *Network
	err  error
	refs atomic.Int32
}

// release drops one reference.
func (e *cacheEntry) release() {
	if e.refs.Add(-1) == 0 && e.m != nil {
		e.m.recycle()
	}
}

// Scaffold-cache traffic counters, process-global across all caches
// (mirroring nfv.MetricCacheStats): a hit means an admission skipped
// the full overlay construction because a same-signature solve already
// built it at the same network version.
var scaffoldHits, scaffoldMisses atomic.Int64

// CacheStats reports the cumulative scaffold-cache traffic of every
// Cache in the process.
func CacheStats() (hits, misses int64) {
	return scaffoldHits.Load(), scaffoldMisses.Load()
}

// maxCacheEntries bounds one generation's worth of scaffolds; the mix
// of live (source, chain) pairs is small in practice, so eviction is
// wholesale rather than LRU.
const maxCacheEntries = 256

// Cache memoizes expanded MOD networks keyed by (source, chain
// signature, graph generation, deployment epoch). Because the key pins
// the exact network version, a cached overlay is bit-identical to what
// Build would produce — reuse cannot change solver results. Entries
// from superseded versions are dropped as soon as a newer version is
// requested, so the cache holds at most one version's scaffolds (the
// current one) at a time. Safe for concurrent use; concurrent requests
// for the same key share one build (singleflight).
//
// Entries are reference-counted. Get hands its caller a reference,
// which Network.Release returns; dropping an entry drops only the
// cache's own. An overlay held across an eviction therefore stays
// intact for its holder, and its buffers go back to Build's pool when
// the last holder releases it.
//
// Graph generations and deployment epochs are per-network counters, so
// the key also carries the network's process-unique incarnation id: a
// rebased manager feeding the cache a freshly materialized network can
// never alias scaffolds of the network it replaced. Owners that swap
// networks should still call Purge to release the dead entries
// promptly.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	// version of the entries currently held; a request for a newer
	// version evicts everything older in one shot.
	id, gen, epoch uint64
}

// NewCache returns an empty scaffold cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// Get returns the expanded MOD network for (net, source, chain),
// building and memoizing it on first use. net must be at rest for the
// duration of the call (the dynamic manager passes immutable
// snapshots); the returned overlay is shared and strictly read-only,
// and the caller releases it once done (Network.Release).
func (c *Cache) Get(net *nfv.Network, source int, chain nfv.SFC) (*Network, error) {
	key := cacheKey{
		source: source,
		sig:    ChainSig(chain),
		id:     net.IncarnationID(),
		gen:    net.Graph().Generation(),
		epoch:  net.DeployEpoch(),
	}
	c.mu.Lock()
	if key.id != c.id || key.gen != c.gen || key.epoch != c.epoch {
		// The network moved on; every scaffold built against an older
		// version is dead weight (a version triple never repeats).
		c.dropAll()
		c.id, c.gen, c.epoch = key.id, key.gen, key.epoch
	}
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= maxCacheEntries {
			c.dropAll()
		}
		e = &cacheEntry{}
		e.refs.Store(1) // the cache's own
		c.entries[key] = e
	}
	e.refs.Add(1)
	c.mu.Unlock()
	if ok {
		scaffoldHits.Add(1)
	} else {
		scaffoldMisses.Add(1)
	}
	e.once.Do(func() {
		if e.m, e.err = Build(net, source, chain); e.m != nil {
			e.m.entry = e
		}
	})
	if e.err != nil {
		e.release()
		return nil, e.err
	}
	return e.m, nil
}

// dropAll empties the cache, dropping its reference to every entry;
// callers hold c.mu.
func (c *Cache) dropAll() {
	for _, e := range c.entries {
		e.release()
	}
	clear(c.entries)
}

// Purge drops every cached scaffold. Call it when the underlying
// network object is replaced so dead entries are released immediately
// instead of lingering until the next version-mismatch eviction.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropAll()
	c.id, c.gen, c.epoch = 0, 0, 0
}
