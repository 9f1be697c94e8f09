package nfv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Instance is a VNF instance placed on a node at a chain level
// (Level in [1..k], matching Chain[Level-1]).
type Instance struct {
	VNF   int `json:"vnf"`
	Node  int `json:"node"`
	Level int `json:"level"`
}

// Segment is one stage of a destination's walk: the node path carrying
// the flow between the instance serving chain level `Level` and the
// next hop of the chain. Level j in [0..k] corresponds to the paper's
// psi_{l_j} stage: Level 0 runs from the source to the first VNF,
// Level j from VNF j to VNF j+1, and Level k from the last VNF to the
// destination. Path lists nodes inclusive of both endpoints and may be
// a single node when the two endpoints coincide.
type Segment struct {
	Level int   `json:"level"`
	Path  []int `json:"path"`
}

// Walk is one destination's end-to-end route: exactly k+1 segments.
type Walk []Segment

// Embedding is a solver's output: the new VNF instances it deploys and
// one walk per destination (parallel to Task.Destinations).
type Embedding struct {
	Task         Task       `json:"task"`
	NewInstances []Instance `json:"new_instances"`
	Walks        []Walk     `json:"walks"`
}

// ServingNode returns the node that serves destination index di at
// chain level lvl (lvl in [1..k]), derived from the walk structure.
func (e *Embedding) ServingNode(di, lvl int) int {
	return e.Walks[di][lvl].Path[0]
}

// AppendServed appends to dst the distinct (vnf, node) instances the
// walks are served at, in first-visit order (destination-major, then
// level), and returns the extended slice. Entries dst already holds are
// kept and not consulted; it allocates only when dst has to grow.
func (e *Embedding) AppendServed(dst [][2]int) [][2]int {
	start := len(dst)
	for _, w := range e.Walks {
		for lvl, f := range e.Task.Chain {
			key := [2]int{f, w[lvl+1].Path[0]}
			if !slices.Contains(dst[start:], key) {
				dst = append(dst, key)
			}
		}
	}
	return dst
}

// Clone returns a deep copy of the embedding.
func (e *Embedding) Clone() *Embedding {
	c := &Embedding{
		Task:         e.Task.CloneTask(),
		NewInstances: append([]Instance(nil), e.NewInstances...),
		Walks:        make([]Walk, len(e.Walks)),
	}
	for i, w := range e.Walks {
		c.Walks[i] = make(Walk, len(w))
		for j, s := range w {
			c.Walks[i][j] = Segment{Level: s.Level, Path: append([]int(nil), s.Path...)}
		}
	}
	return c
}

// CostBreakdown decomposes the traffic delivery cost.
type CostBreakdown struct {
	Setup float64 `json:"setup"` // sum of new-instance setup costs
	Link  float64 `json:"link"`  // sum over distinct (stage, edge) pairs
	Total float64 `json:"total"`
}

// Cost evaluates objective (1a) for the embedding: the setup cost of
// every distinct new instance plus the link cost of every distinct
// (stage, directed edge) pair across all walks. It does not check
// feasibility (pair it with Validate, or call ValidateCost), and prices
// a hop over a non-edge at +Inf.
func (net *Network) Cost(e *Embedding) CostBreakdown {
	bd, _ := net.CostWith(e, nil)
	return bd
}

// CostWith is Cost with a scratch the caller keeps: seen holds the
// pass's (stage, edge) bitmap and its hop memo, and is reused when
// large enough; it returns seen, grown if it had to be, for the next
// call. Pass nil or what an earlier call returned. Solvers that price
// many embeddings keep one.
func (net *Network) CostWith(e *Embedding, seen []uint64) (CostBreakdown, []uint64) {
	bd, seen, _ := net.walk(e, seen, false, true)
	return bd, seen
}

// ValidateCost is Validate and CostWith in one pass over the segments:
// the embedding's cost when it passes every check, else Validate's
// error (and a zero breakdown). seen is reused as in CostWith.
func (net *Network) ValidateCost(e *Embedding, seen []uint64) (CostBreakdown, []uint64, error) {
	return net.walk(e, seen, true, true)
}

// placedBefore reports whether insts lists an instance of f on node v.
// Embeddings place a handful of instances (at most k per distinct
// chain), so a scan beats a set.
func placedBefore(insts []Instance, f, v int) bool {
	for _, in := range insts {
		if in.VNF == f && in.Node == v {
			return true
		}
	}
	return false
}

// Validate checks the embedding against every problem constraint:
//
//	(1b) every destination is served by every chain VNF;
//	(1c) every destination's walk starts at the source;
//	(1d) node capacities are respected;
//	(1e) chain order: segment endpoints are consistent, every segment
//	     path is edge-connected, and level j is served before level j+1;
//	(1f) implicit in the walk representation.
//
// It also checks structural consistency of NewInstances (servers only,
// no duplicates, not already deployed) and that every serving node
// actually hosts the required VNF (pre-deployed or newly placed).
func (net *Network) Validate(e *Embedding) error {
	_, _, err := net.walk(e, nil, true, false)
	return err
}

// walk is the one pass over an embedding behind Validate (check),
// CostWith (price) and ValidateCost (both). Every hop is looked up
// once, through CSR.Arc, which also gives the (stage, arc) bit it
// prices — except hops the pass has already looked up at the same
// level. Two rules find those: the leading hops a segment shares with
// the same-index segment of the previous walk, same level and same
// nodes (all of them when the segment repeats that one, as segments
// 0..k-1 of every walk of a stage-one solution do), and, when the pass
// has a scratch (it prices), the hop memo: per level 0..k and node v,
// the node an earlier hop of the pass reached v from. A node of a tree
// is reached from one parent only, so every hop of a destination's
// tree path that some earlier destination's path already took is
// skipped, not only those the previous one took. Skipping is exact. The
// earlier copy of the hop was looked up and priced, or the pass would
// have stopped there (by induction, if it was skipped itself), so it is
// an edge and every bit it would set is already set: Link receives the
// same additions in the same order and the price keeps its bits. The
// per-walk checks (level label, start at the previous end, host
// placement) run on every segment.
//
// Unchecked, a segment's edges are priced under its own label, stages
// numbered by first appearance, and a hop over a non-edge prices the
// embedding at +Inf.
func (net *Network) walk(e *Embedding, seen []uint64, check, price bool) (CostBreakdown, []uint64, error) {
	var bd CostBreakdown
	task := e.Task
	if check {
		if err := net.checkInstances(e); err != nil {
			return CostBreakdown{}, seen, err
		}
	}
	if price {
		for i, inst := range e.NewInstances {
			if !placedBefore(e.NewInstances[:i], inst.VNF, inst.Node) {
				bd.Setup += net.SetupCost(inst.VNF, inst.Node)
			}
		}
	}
	// One bit per (stage, directed edge): an edge carries one flow copy
	// per chain stage whatever the fan-out.
	csr := net.g.CSR()
	n := csr.N
	words := (csr.NumArcs() + 63) / 64
	var levelBuf [16]int
	levels := levelBuf[:0]
	k := task.K()
	var memo []uint64
	var stamp uint64
	if price {
		memo, stamp, seen = hopMemo(seen, (k+1)*n, (k+1)*words)
	}
	rows := len(seen)
	var prev Walk
	for di, w := range e.Walks {
		var d int
		if check {
			d = task.Destinations[di]
			if len(w) != k+1 {
				return CostBreakdown{}, seen, fmt.Errorf("%w: destination %d walk has %d segments, want %d",
					ErrInfeasible, d, len(w), k+1)
			}
		}
		prevEnd := task.Source
		for j, seg := range w {
			if check {
				if seg.Level != j {
					return CostBreakdown{}, seen, fmt.Errorf("%w: destination %d segment %d labelled level %d",
						ErrInfeasible, d, j, seg.Level)
				}
				if len(seg.Path) == 0 {
					return CostBreakdown{}, seen, fmt.Errorf("%w: destination %d segment %d empty", ErrInfeasible, d, j)
				}
				if seg.Path[0] != prevEnd {
					return CostBreakdown{}, seen, fmt.Errorf("%w: constraint (1e): destination %d segment %d starts at %d, want %d",
						ErrInfeasible, d, j, seg.Path[0], prevEnd)
				}
			}
			from := 1 // the first hop not shared with the previous walk
			if j < len(prev) && prev[j].Level == seg.Level {
				from = max(from, commonPrefix(prev[j].Path, seg.Path))
			}
			if from < len(seg.Path) {
				var row, reached []uint64
				if price {
					li := slices.Index(levels, seg.Level)
					if li < 0 {
						li = len(levels)
						levels = append(levels, seg.Level)
						seen = append(seen, make([]uint64, words)...)
					}
					row = seen[rows+li*words : rows+(li+1)*words]
					if uint(seg.Level) <= uint(k) {
						reached = memo[seg.Level*n : (seg.Level+1)*n]
					}
				}
				for i := from; i < len(seg.Path); i++ {
					u, v := seg.Path[i-1], seg.Path[i]
					if uint(u) < uint(len(reached)) && uint(v) < uint(len(reached)) && reached[v] == stamp|uint64(u) {
						continue
					}
					arc := csr.Arc(u, v)
					if arc < 0 {
						if check {
							return CostBreakdown{}, seen, fmt.Errorf("%w: destination %d segment %d uses non-edge %d-%d",
								ErrInfeasible, d, j, u, v)
						}
						bd.Link = math.Inf(1)
						bd.Total = math.Inf(1)
						return bd, seen, nil
					}
					if reached != nil {
						reached[v] = stamp | uint64(u)
					}
					if bit := uint64(1) << (arc & 63); price && row[arc>>6]&bit == 0 {
						row[arc>>6] |= bit
						bd.Link += csr.Cost[arc]
					}
				}
			}
			if !check {
				continue
			}
			prevEnd = seg.Path[len(seg.Path)-1]
			// Segment j (for j < k) ends at the node serving level j+1.
			if j < k {
				f := task.Chain[j]
				if !net.IsDeployed(f, prevEnd) && !placedBefore(e.NewInstances, f, prevEnd) {
					return CostBreakdown{}, seen, fmt.Errorf("%w: constraint (1b): destination %d level %d needs VNF %d on node %d but none is placed there",
						ErrInfeasible, d, j+1, f, prevEnd)
				}
			}
		}
		if check && prevEnd != d {
			return CostBreakdown{}, seen, fmt.Errorf("%w: destination %d walk ends at %d", ErrInfeasible, d, prevEnd)
		}
		prev = w
	}
	bd.Total = bd.Setup + bd.Link
	return bd, seen, nil
}

// hopMemo lays out the front of a pricing pass's scratch: a header word
// — the pass stamp in its high half, the memo's length in its low half
// — then the memo, span words, one per (level, node), each the stamp of
// the pass that last reached the node at that level in its high half
// and the node it came from in its low half. Entries outlive the pass:
// a fresh stamp retires them all at once, so the memo is cleared only
// when its length changes or the stamp would wrap. It returns the memo,
// this pass's stamp and seen cut to header and memo, with room for
// extra more words.
func hopMemo(seen []uint64, span, extra int) (memo []uint64, stamp uint64, out []uint64) {
	const low = 1<<32 - 1
	if len(seen) <= span || seen[0]&low != uint64(span) || seen[0]>>32 == low {
		if cap(seen) < 1+span+extra {
			seen = make([]uint64, 1+span, 1+span+extra)
		} else {
			seen = seen[:1+span]
			clear(seen)
		}
		seen[0] = uint64(span)
	}
	seen = seen[:1+span]
	seen[0] += 1 << 32
	return seen[1:], seen[0] &^ low, seen
}

// commonPrefix is the number of leading nodes a and b share.
func commonPrefix(a, b []int) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// checkInstances is Validate's check of the task, the walk count and
// NewInstances: structural checks, then capacity per node with the
// demands added in listing order.
func (net *Network) checkInstances(e *Embedding) error {
	task := e.Task
	if err := task.Validate(net); err != nil {
		return err
	}
	if len(e.Walks) != len(task.Destinations) {
		return fmt.Errorf("%w: %d walks for %d destinations",
			ErrInfeasible, len(e.Walks), len(task.Destinations))
	}
	for i, inst := range e.NewInstances {
		vnf, err := net.VNF(inst.VNF)
		if err != nil {
			return fmt.Errorf("%w: new instance %+v: %v", ErrInfeasible, inst, err)
		}
		if !net.IsServer(inst.Node) {
			return fmt.Errorf("%w: new instance of %q on switch node %d",
				ErrInfeasible, vnf.Name, inst.Node)
		}
		if net.IsDeployed(inst.VNF, inst.Node) {
			return fmt.Errorf("%w: instance of %q on node %d duplicates a deployed one",
				ErrInfeasible, vnf.Name, inst.Node)
		}
		if placedBefore(e.NewInstances[:i], inst.VNF, inst.Node) {
			return fmt.Errorf("%w: duplicate new instance of %q on node %d",
				ErrInfeasible, vnf.Name, inst.Node)
		}
	}
	for i, inst := range e.NewInstances {
		v, add, first := inst.Node, 0.0, true
		for j, in := range e.NewInstances {
			if in.Node != v {
				continue
			}
			if j < i {
				first = false // summed at the node's first instance
				break
			}
			add += net.tab.catalog[in.VNF].Demand
		}
		if first && net.UsedCapacity(v)+add > net.Capacity(v)+1e-9 {
			return fmt.Errorf("%w: constraint (1d): node %d capacity %v exceeded (used %v + new %v)",
				ErrInfeasible, v, net.Capacity(v), net.UsedCapacity(v), add)
		}
	}
	return nil
}

// String renders a human-readable embedding summary.
func (e *Embedding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "embedding: source=%d k=%d destinations=%v\n",
		e.Task.Source, e.Task.K(), e.Task.Destinations)
	insts := append([]Instance(nil), e.NewInstances...)
	sort.Slice(insts, func(a, b int) bool {
		if insts[a].Level != insts[b].Level {
			return insts[a].Level < insts[b].Level
		}
		return insts[a].Node < insts[b].Node
	})
	for _, inst := range insts {
		fmt.Fprintf(&b, "  new instance: vnf=%d level=%d node=%d\n", inst.VNF, inst.Level, inst.Node)
	}
	for i, w := range e.Walks {
		fmt.Fprintf(&b, "  dest %d:", e.Task.Destinations[i])
		for _, seg := range w {
			fmt.Fprintf(&b, " [L%d %v]", seg.Level, seg.Path)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
