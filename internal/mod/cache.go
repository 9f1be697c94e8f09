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
	return string(appendChainSig(make([]byte, 0, 2*len(chain)), chain))
}

// appendChainSig appends chain's signature to buf.
func appendChainSig(buf []byte, chain nfv.SFC) []byte {
	// Varint-ish little scheme keeps the common case (ids < 128) at one
	// byte per VNF without pulling in encoding/binary at call sites.
	for _, f := range chain {
		u := uint(f)
		for u >= 0x80 {
			buf = append(buf, byte(u)|0x80)
			u >>= 7
		}
		buf = append(buf, byte(u))
	}
	return buf
}

// cacheKey identifies one reusable overlay: the (source, chain) pair
// it embeds plus the network state it was built at. id is the network
// incarnation (process-unique, shared by clones), gen the graph
// generation (topology and metric identity), print the deployment
// fingerprint (the virtual arcs' setup costs and the candidate table's
// capacity verdicts read the deployed set). The fingerprint only
// narrows the lookup: Get serves an entry only when the deployment
// bitset it was built at equals the network's.
type cacheKey struct {
	source int
	sig    string
	id     uint64
	gen    uint64
	print  uint64
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
	// bits is the deployment bitset the entry was built at, one copy
	// shared by every entry built at that state; reused records that a
	// Get after the building one served the entry. Both are guarded by
	// the cache lock.
	bits   []uint64
	reused bool
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
// built it at the same deployment.
var scaffoldHits, scaffoldMisses atomic.Int64

// CacheStats reports the cumulative scaffold-cache traffic of every
// Cache in the process.
func CacheStats() (hits, misses int64) {
	return scaffoldHits.Load(), scaffoldMisses.Load()
}

// maxCacheEntries bounds the scaffolds one cache holds; the mix of live
// (source, chain) pairs and of deployments worth keeping is small in
// practice, so eviction is wholesale rather than LRU.
const maxCacheEntries = 256

// Cache memoizes expanded MOD networks keyed by (source, chain
// signature, incarnation, graph generation, deployment fingerprint).
// An entry keeps the deployment bitset it was built at and is served
// only to a network whose bitset equals it bit for bit, so a cached
// overlay is what Build would produce — reuse cannot change solver
// results, and the fingerprint is never trusted on its own. Because the
// key is the deployment's content rather than a counter, a network
// that returns to a deployment it was at before (sessions released,
// a burst over) finds that deployment's scaffolds again. Safe for
// concurrent use; concurrent requests for the same key share one build
// (singleflight).
//
// Retention has no knob. A request at another incarnation or graph
// generation empties the cache. A request at another deployment drops
// every entry no second Get has served — a scaffold built once and
// never reused is dead weight, as it is for a stream of distinct
// chains — and keeps the reused ones, whatever state they were built
// at, until the incarnation or generation changes, Purge, or the
// 256-entry bound empties the cache wholesale. Entries built at one
// deployment share one copy of its bitset.
//
// Entries are reference-counted. Get hands its caller a reference,
// which Network.Release returns; dropping an entry drops only the
// cache's own. An overlay held across an eviction therefore stays
// intact for its holder, and its buffers go back to Build's pool when
// the last holder releases it.
//
// Graph generations are per-graph counters, so the key also carries
// the network's process-unique incarnation id: a rebased manager
// feeding the cache a freshly materialized network can never alias
// scaffolds of the network it replaced. Owners that swap networks
// should still call Purge to release the dead entries promptly.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	// id and gen are the incarnation and graph generation every held
	// entry was built at.
	id, gen uint64
	// print is the fingerprint of the deployment the last request was
	// at, and state that deployment's bitset once a build there has
	// needed it (nil until then): the copy new entries share.
	print uint64
	state []uint64
}

// NewCache returns an empty scaffold cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// Get returns the expanded MOD network for (net, source, chain),
// building and memoizing it on first use. net must be at rest for the
// duration of the call (the dynamic manager passes immutable
// snapshots); the returned overlay is shared and strictly read-only,
// and the caller releases it once done (Network.Release). A hit
// allocates nothing: the signature is built on the stack, and only a
// miss copies it into the key it stores.
func (c *Cache) Get(net *nfv.Network, source int, chain nfv.SFC) (*Network, error) {
	var sigBuf [32]byte
	sig := appendChainSig(sigBuf[:0], chain)
	key := cacheKey{
		source: source,
		id:     net.IncarnationID(),
		gen:    net.Graph().Generation(),
		print:  net.DeployFingerprint(),
	}
	c.mu.Lock()
	switch {
	case key.id != c.id || key.gen != c.gen:
		// Another network or topology: nothing held can be served again.
		c.dropAll()
		c.id, c.gen, c.print, c.state = key.id, key.gen, key.print, nil
	case key.print != c.print:
		c.moveTo(key.print)
	}
	// A string conversion inside the index expression is not
	// materialized, so the lookup does not allocate.
	e, ok := c.entries[cacheKey{source: source, sig: string(sig), id: key.id, gen: key.gen, print: key.print}]
	hit := ok && net.SameDeployment(e.bits)
	if hit {
		e.reused = true
	} else {
		key.sig = string(sig)
		if ok {
			// An equal fingerprint over another deployment: the entry
			// is not this state's, and a new build takes its slot.
			delete(c.entries, key)
			e.release()
		}
		if len(c.entries) >= maxCacheEntries {
			c.dropAll()
		}
		e = &cacheEntry{bits: c.stateOf(net)}
		e.refs.Store(1) // the cache's own
		c.entries[key] = e
	}
	e.refs.Add(1)
	c.mu.Unlock()
	if hit {
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

// moveTo makes fp the current deployment's fingerprint, dropping every entry no
// second Get has served; callers hold c.mu.
func (c *Cache) moveTo(fp uint64) {
	for k, e := range c.entries {
		if !e.reused {
			delete(c.entries, k)
			e.release()
		}
	}
	c.print, c.state = fp, nil
}

// stateOf returns the bitset a new entry at net's deployment shares:
// the current copy when it matches, else the one a retained entry
// built at this deployment holds, else a fresh copy; callers hold c.mu.
func (c *Cache) stateOf(net *nfv.Network) []uint64 {
	if net.SameDeployment(c.state) {
		return c.state
	}
	for k, e := range c.entries {
		if k.print == c.print && net.SameDeployment(e.bits) {
			c.state = e.bits
			return c.state
		}
	}
	c.state = net.DeploymentBits()
	return c.state
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
// instead of lingering until the next request at another network.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropAll()
	c.id, c.gen, c.print, c.state = 0, 0, 0, nil
}
