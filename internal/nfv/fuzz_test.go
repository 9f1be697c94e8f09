package nfv

import (
	"encoding/json"
	"testing"

	"sftree/internal/graph"
)

// FuzzInstanceDocUnmarshal feeds arbitrary bytes into the instance
// decoder: it must never panic, and anything it accepts must survive a
// re-encode/re-decode round trip with the same shape.
func FuzzInstanceDocUnmarshal(f *testing.F) {
	// Seed with a real document.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1.5)
	g.MustAddEdge(1, 2, 2)
	net := NewNetwork(g, DefaultCatalog())
	if err := net.SetServer(1, 2); err != nil {
		f.Fatal(err)
	}
	if err := net.Deploy(0, 1); err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(InstanceDoc{
		Network: net,
		Task:    Task{Source: 0, Destinations: []int{2}, Chain: SFC{0}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"network":{"nodes":-1},"task":{}}`))
	f.Add([]byte(`{"network":{"nodes":2,"edges":[{"u":0,"v":1,"cost":-3}],"catalog":[],"servers":[]},"task":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var doc InstanceDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return // rejection is fine; panics are not
		}
		if doc.Network == nil {
			return
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted doc failed to re-marshal: %v", err)
		}
		var back InstanceDoc
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-marshalled doc failed to parse: %v", err)
		}
		if back.Network.NumNodes() != doc.Network.NumNodes() {
			t.Fatalf("round trip changed node count %d -> %d",
				doc.Network.NumNodes(), back.Network.NumNodes())
		}
		if back.Network.Graph().NumEdges() != doc.Network.Graph().NumEdges() {
			t.Fatalf("round trip changed edge count")
		}
	})
}

// FuzzValidateNeverPanics throws structurally arbitrary embeddings at
// the validator and the cost oracle, alone and with a second walk that
// repeats the first one's opening segment (the walker skips its
// lookups), and holds both to the per-hop reference: the same verdict
// word for word and, when valid, the same price bits. The third seed
// is a valid embedding.
func FuzzValidateNeverPanics(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(1), uint8(2))
	f.Add(int64(99), uint8(0), uint8(0), uint8(0))
	f.Add(int64(1), uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, rawNode, rawLevel, rawLen uint8) {
		g := graph.New(4)
		g.MustAddEdge(0, 1, 1)
		g.MustAddEdge(1, 2, 1)
		g.MustAddEdge(2, 3, 1)
		net := NewNetwork(g, []VNF{{ID: 0, Name: "f", Demand: 1}})
		if err := net.SetServer(1, 1); err != nil {
			t.Fatal(err)
		}
		// Deliberately malformed embedding pieces.
		node := int(rawNode)%6 - 1 // may be out of range
		host := int(uint64(seed) % 4)
		e := &Embedding{
			Task:         Task{Source: 0, Destinations: []int{3}, Chain: SFC{0}},
			NewInstances: []Instance{{VNF: int(rawLen) % 3, Node: node, Level: int(rawLevel)}},
			Walks: []Walk{{
				{Level: int(rawLevel) % 3, Path: []int{0, host}},
				{Level: 1, Path: []int{host, 2, 3}},
			}},
		}
		two := e.Clone()
		two.Task.Destinations = append(two.Task.Destinations, 2)
		two.Walks = append(two.Walks, Walk{
			{Level: two.Walks[0][0].Level, Path: append([]int(nil), two.Walks[0][0].Path...)},
			{Level: 1, Path: []int{host, 2}},
		})
		// Must not panic; error or success are both acceptable.
		for _, e := range []*Embedding{e, two} {
			got, want := net.Validate(e), validateNaive(net, e)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("Validate: %v, reference %v", got, want)
			}
			if got != nil {
				continue // Cost trusts what Validate checks (instance ids)
			}
			if bd, ref := net.Cost(e), costNaive(net, e); bd != ref {
				t.Fatalf("Cost: %+v, reference %+v", bd, ref)
			}
		}
	})
}
