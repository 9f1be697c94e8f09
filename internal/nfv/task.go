package nfv

import (
	"fmt"
)

// SFC is a service function chain: VNF catalog IDs in traversal order.
type SFC []int

// Task is a multicast task delta = (S, D, chain): deliver one flow from
// Source to every destination, where each flow must traverse the chain
// in order before arriving.
type Task struct {
	Source       int   `json:"source"`
	Destinations []int `json:"destinations"`
	Chain        SFC   `json:"chain"`
}

// Validate checks the task against the network: node ranges, VNF IDs,
// non-empty chain and destination set, and no repeated chain entries
// (an SFC lists distinct function types).
func (t Task) Validate(net *Network) error {
	n := net.NumNodes()
	if t.Source < 0 || t.Source >= n {
		return fmt.Errorf("%w: source %d out of range", ErrInvalidTask, t.Source)
	}
	if len(t.Destinations) == 0 {
		return fmt.Errorf("%w: no destinations", ErrInvalidTask)
	}
	var buf [8]uint64
	seenDest := bitsFor(buf[:], n)
	for _, d := range t.Destinations {
		if d < 0 || d >= n {
			return fmt.Errorf("%w: destination %d out of range", ErrInvalidTask, d)
		}
		if !seenDest.add(d) {
			return fmt.Errorf("%w: duplicate destination %d", ErrInvalidTask, d)
		}
	}
	if len(t.Chain) == 0 {
		return fmt.Errorf("%w: empty SFC", ErrInvalidTask)
	}
	seenVNF := bitsFor(buf[:], net.CatalogSize())
	for _, f := range t.Chain {
		if f < 0 || f >= net.CatalogSize() {
			return fmt.Errorf("%w: %w id %d", ErrInvalidTask, ErrUnknownVNF, f)
		}
		if !seenVNF.add(f) {
			return fmt.Errorf("%w: VNF %d repeated in chain", ErrInvalidTask, f)
		}
	}
	return nil
}

// bits is a set over [0, n).
type bits []uint64

// bitsFor returns an empty set over [0, n), in buf when it is large
// enough.
func bitsFor(buf []uint64, n int) bits {
	words := (n + 63) / 64
	if words > len(buf) {
		return make(bits, words)
	}
	clear(buf[:words])
	return buf[:words]
}

// add inserts i and reports whether it was absent.
func (b bits) add(i int) bool {
	w, mask := i>>6, uint64(1)<<(i&63)
	had := b[w]&mask != 0
	b[w] |= mask
	return !had
}

// K returns the chain length.
func (t Task) K() int { return len(t.Chain) }

// CloneTask returns a deep copy of the task.
func (t Task) CloneTask() Task {
	return Task{
		Source:       t.Source,
		Destinations: append([]int(nil), t.Destinations...),
		Chain:        append(SFC(nil), t.Chain...),
	}
}
