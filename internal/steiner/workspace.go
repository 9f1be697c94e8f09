package steiner

import (
	"math"
	"sort"
	"sync"

	"sftree/internal/graph"
)

// workspace is the reusable scratch arena behind the Steiner
// routines. Stage one runs one Steiner construction per candidate
// last-host, so the transient maps and slices the textbook
// formulations allocate dominated the solver's allocation profile;
// the workspace replaces them with epoch-marked flat arrays recycled
// through a sync.Pool. Acquire with getWS, release with putWS on the
// same call path — or, for a Sweep, which keeps its workspace from
// NewSweep to Close, on the same goroutine; nothing reachable from the
// workspace may escape into a returned Tree.
type workspace struct {
	// nodeMark/nodeGen: epoch membership marks over graph nodes
	// (terminal sets, dedup). A node is marked iff nodeMark[v] == nodeGen.
	nodeMark []int32
	nodeGen  int32
	// edgeMark/edgeGen: epoch membership marks over graph edges, with
	// the distinct marked ids collected in order into edges.
	edgeMark []int32
	edgeGen  int32
	edges    []int
	// alive[i] tracks survival of edges[i] during pruning.
	alive []bool
	// deg holds node degrees during pruning; always restored to zero.
	deg []int32
	// uf serves Kruskal over the collected edges.
	uf graph.UnionFind
	// treeNodes lists the growing tree's nodes in joining order
	// (Takahashi-Matsuyama).
	treeNodes []int
	// Terminal-sized buffers: the deduplicated terminals, the ones
	// Takahashi-Matsuyama has attached, and Prim's (see Sweep.expand)
	// open terminals and closure edges.
	terms    []int
	attached []bool
	open     []openSlot
	pairs    [][2]int32
	// Sweep state (see Sweep): the D*D distance block as Prim keys and
	// the path-memo slots, the memo arena, the current root's edge and
	// node bitsets; rootTerms is a [root]+D terminal list (the sweep's
	// general branch, Takahashi-Matsuyama, DWTable.Tree).
	dd        []uint64
	slot      []int32
	arena     []uint64
	bits      []uint64
	rootTerms []int
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func getWS() *workspace   { return wsPool.Get().(*workspace) }
func putWS(ws *workspace) { wsPool.Put(ws) }

// bumpNodes starts a fresh node-mark epoch covering nodes in [0, n).
func (ws *workspace) bumpNodes(n int) {
	if cap(ws.nodeMark) < n {
		ws.nodeMark = make([]int32, n)
		ws.nodeGen = 0
	}
	ws.nodeMark = ws.nodeMark[:n]
	if ws.nodeGen == math.MaxInt32 {
		for i := range ws.nodeMark {
			ws.nodeMark[i] = 0
		}
		ws.nodeGen = 0
	}
	ws.nodeGen++
}

// markNode marks v in the current epoch, reporting whether it was new.
func (ws *workspace) markNode(v int) bool {
	if ws.nodeMark[v] == ws.nodeGen {
		return false
	}
	ws.nodeMark[v] = ws.nodeGen
	return true
}

func (ws *workspace) nodeMarked(v int) bool { return ws.nodeMark[v] == ws.nodeGen }

// bumpEdges starts a fresh edge-mark epoch covering edges in [0, m)
// and resets the collected-edge list.
func (ws *workspace) bumpEdges(m int) {
	if cap(ws.edgeMark) < m {
		ws.edgeMark = make([]int32, m)
		ws.edgeGen = 0
	}
	ws.edgeMark = ws.edgeMark[:m]
	if ws.edgeGen == math.MaxInt32 {
		for i := range ws.edgeMark {
			ws.edgeMark[i] = 0
		}
		ws.edgeGen = 0
	}
	ws.edgeGen++
	ws.edges = ws.edges[:0]
}

// markEdge adds id to the collected set once per epoch.
func (ws *workspace) markEdge(id int) {
	if ws.edgeMark[id] != ws.edgeGen {
		ws.edgeMark[id] = ws.edgeGen
		ws.edges = append(ws.edges, id)
	}
}

// dedup fills ws.terms with the unique terminals in first-seen order.
func (ws *workspace) dedup(terminals []int, n int) []int {
	ws.bumpNodes(n)
	out := ws.terms[:0]
	for _, v := range terminals {
		if ws.markNode(v) {
			out = append(out, v)
		}
	}
	ws.terms = out
	return out
}

// openSlot is a terminal Prim has not reached yet: the key of its
// distance to the nearest tree terminal, its index and that terminal's
// index.
type openSlot struct {
	key      uint64
	at, from int32
}

// key is a distance as Prim compares it: its IEEE bit pattern with the
// sign bit cleared, which folds −0 into +0. Metric distances are never
// negative (AddEdge refuses negative and NaN costs), and non-negative
// doubles, +Inf included, order exactly as their bit patterns do, so a
// < between keys answers as the < between the distances did — and
// compiles to a conditional move where the float compare branched.
func key(d float64) uint64 { return math.Float64bits(d) &^ (1 << 63) }

// infKey is key(+Inf), the key of an unreachable pair.
const infKey = 0x7ff0000000000000

// mstOfCollected runs Kruskal over ws.edges (in place), keeping the
// edges of a minimum spanning forest. Ties are broken by edge id, so
// the result is deterministic regardless of collection order.
func (ws *workspace) mstOfCollected(g *graph.Graph) []int {
	ids := ws.edges
	sort.Slice(ids, func(a, b int) bool {
		ca, cb := g.Edge(ids[a]).Cost, g.Edge(ids[b]).Cost
		if ca != cb {
			return ca < cb
		}
		return ids[a] < ids[b]
	})
	ws.uf.Reset(g.NumNodes())
	w := 0
	for _, id := range ids {
		e := g.Edge(id)
		if ws.uf.Union(e.U, e.V) {
			ids[w] = id
			w++
		}
	}
	ws.edges = ids[:w]
	return ws.edges
}

// prune removes edges incident to non-terminal leaves from ids (in
// place) until a fixed point, returning the survivors sorted by id.
func (ws *workspace) prune(g *graph.Graph, ids []int, terminals []int) []int {
	ws.bumpNodes(g.NumNodes())
	for _, v := range terminals {
		ws.markNode(v)
	}
	if cap(ws.deg) < g.NumNodes() {
		ws.deg = make([]int32, g.NumNodes())
	}
	deg := ws.deg[:g.NumNodes()]
	if cap(ws.alive) < len(ids) {
		ws.alive = make([]bool, len(ids))
	}
	alive := ws.alive[:len(ids)]
	for i, id := range ids {
		alive[i] = true
		e := g.Edge(id)
		deg[e.U]++
		deg[e.V]++
	}
	for changed := true; changed; {
		changed = false
		for i, id := range ids {
			if !alive[i] {
				continue
			}
			e := g.Edge(id)
			if (deg[e.U] == 1 && !ws.nodeMarked(e.U)) || (deg[e.V] == 1 && !ws.nodeMarked(e.V)) {
				alive[i] = false
				deg[e.U]--
				deg[e.V]--
				changed = true
			}
		}
	}
	w := 0
	for i, id := range ids {
		e := g.Edge(id)
		deg[e.U], deg[e.V] = 0, 0 // restore the shared degree array
		if alive[i] {
			ids[w] = id
			w++
		}
	}
	out := ids[:w]
	sort.Ints(out)
	return out
}
