package graph

// NodeHeap is a binary min-heap of (node, priority) pairs with
// decrease-key support, specialized for Dijkstra-style algorithms.
// It avoids container/heap's interface indirection on the hot path.
// A zero NodeHeap is ready for use once Reset has sized it.
type NodeHeap struct {
	items []heapItem
	pos   []int // node -> index in items, -1 when absent
}

type heapItem struct {
	node int
	prio float64
}

// Reset empties the heap and sizes it for nodes in [0, n), reusing
// the existing backing arrays when they are large enough. It makes a
// heap value recyclable through a scratch pool: Reset costs one O(n)
// fill, everything else is reused.
func (h *NodeHeap) Reset(n int) {
	if cap(h.pos) < n {
		h.pos = make([]int, n)
	}
	h.pos = h.pos[:n]
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.items = h.items[:0]
}

func (h *NodeHeap) Len() int { return len(h.items) }

// Push inserts node with the given priority, or decreases its priority
// if it is already present with a larger one.
func (h *NodeHeap) Push(node int, prio float64) {
	if i := h.pos[node]; i >= 0 {
		if prio < h.items[i].prio {
			h.items[i].prio = prio
			h.up(i)
		}
		return
	}
	h.items = append(h.items, heapItem{node: node, prio: prio})
	h.pos[node] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum-priority node.
func (h *NodeHeap) Pop() (int, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top.node] = -1
	if last > 0 {
		h.down(0)
	}
	return top.node, top.prio
}

func (h *NodeHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = i
	h.pos[h.items[j].node] = j
}

func (h *NodeHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].prio <= h.items[i].prio {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *NodeHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].prio < h.items[small].prio {
			small = l
		}
		if r < n && h.items[r].prio < h.items[small].prio {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
