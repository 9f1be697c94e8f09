package nfv

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sftree/internal/graph"
)

func TestInstanceDocRoundTrip(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1.5)
	g.MustAddEdge(1, 2, 2.5)
	g.MustAddEdge(2, 3, 3.5)
	net := NewNetwork(g, DefaultCatalog())
	if err := net.SetCoords([]Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 4; v++ {
		if err := net.SetServer(v, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.SetSetupCost(2, 1, 4.25); err != nil {
		t.Fatal(err)
	}
	if err := net.Deploy(5, 2); err != nil {
		t.Fatal(err)
	}
	task := Task{Source: 0, Destinations: []int{3}, Chain: SFC{2, 5}}

	data, err := json.Marshal(InstanceDoc{Network: net, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	var back InstanceDoc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	if back.Network.NumNodes() != 4 {
		t.Errorf("nodes = %d", back.Network.NumNodes())
	}
	if back.Network.Graph().NumEdges() != 3 {
		t.Errorf("edges = %d", back.Network.Graph().NumEdges())
	}
	if c, ok := back.Network.Graph().HasEdge(1, 2); !ok || c != 2.5 {
		t.Errorf("edge 1-2 = %v,%v", c, ok)
	}
	if !back.Network.IsServer(2) || back.Network.IsServer(0) {
		t.Error("server flags lost")
	}
	if back.Network.Capacity(3) != 3 {
		t.Errorf("capacity = %v", back.Network.Capacity(3))
	}
	if !back.Network.IsDeployed(5, 2) {
		t.Error("deployment lost")
	}
	if back.Network.RawSetupCost(2, 1) != 4.25 {
		t.Errorf("setup cost = %v", back.Network.RawSetupCost(2, 1))
	}
	if got := back.Network.Coords(); len(got) != 4 || got[3].X != 2 {
		t.Errorf("coords = %v", got)
	}
	if back.Task.Source != 0 || len(back.Task.Chain) != 2 || back.Task.Chain[1] != 5 {
		t.Errorf("task = %+v", back.Task)
	}
}

func TestInstanceDocMarshalNilNetwork(t *testing.T) {
	if _, err := json.Marshal(InstanceDoc{}); err == nil {
		t.Error("marshal of nil network succeeded")
	}
}

// TestInstanceDocUnmarshalBadEdge: a document whose edges or
// coordinates do not fit its node count is refused at decode, before a
// renderer indexes coordinates by node.
func TestInstanceDocUnmarshalBadEdge(t *testing.T) {
	for name, blob := range map[string]string{
		"out-of-range edge": `{"network":{"nodes":2,"edges":[{"u":0,"v":5,"cost":1}],"catalog":[],"servers":[]},"task":{"source":0,"destinations":[1],"chain":[0]}}`,
		"short coords":      `{"network":{"nodes":3,"edges":[{"u":0,"v":1,"cost":1}],"catalog":[],"servers":[],"coords":[{"x":0,"y":0}]},"task":{"source":0,"destinations":[1],"chain":[0]}}`,
		"long coords":       `{"network":{"nodes":1,"edges":[],"catalog":[],"servers":[],"coords":[{"x":0,"y":0},{"x":1,"y":1}]},"task":{"source":0,"destinations":[1],"chain":[0]}}`,
	} {
		var doc InstanceDoc
		if err := json.Unmarshal([]byte(blob), &doc); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// maxNodes is the node count maxMetricBytes admits: 12 B × 4 096² is
// 192 MiB.
const maxNodes = 4096

// oversizedDoc is a few-kB instance document describing a network of
// nodes nodes and vnfs empty catalog entries.
func oversizedDoc(nodes, vnfs int) []byte {
	catalog := strings.TrimSuffix(strings.Repeat("{},", vnfs), ",")
	return []byte(fmt.Sprintf(`{"network":{"nodes":%d,"edges":[],"catalog":[%s],"servers":[]},"task":{"source":0,"destinations":[1],"chain":[0]}}`,
		nodes, catalog))
}

// TestInstanceDocRefusesOversizedCatalog: a short document must not
// make the decoder allocate a deployment flag and a setup cost for
// every (VNF, node) pair it names before anything checks them.
func TestInstanceDocRefusesOversizedCatalog(t *testing.T) {
	// 1 025 VNFs over 4 096 nodes: one pair past maxDecodedCells'
	// column, ≈38 MB if the decoder built the network, so a lost bound
	// fails here without exhausting memory.
	blob := oversizedDoc(maxNodes, maxDecodedCells/maxNodes+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var doc InstanceDoc
	err := json.Unmarshal(blob, &doc)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d-byte document of %d VNFs × %d nodes: err = %v, want ErrTooLarge", len(blob), maxDecodedCells/maxNodes+1, maxNodes, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing the document allocated %d bytes, want at most 1 MiB", got)
	}
	// The same shape with ten thousand VNFs would ask for ≈370 MB.
	if err := json.Unmarshal(oversizedDoc(maxNodes, 10_000), &doc); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("10 000 VNFs × %d nodes: err = %v, want ErrTooLarge", maxNodes, err)
	}
	if err := json.Unmarshal([]byte(`{"network":{"nodes":1000001,"catalog":[]}}`), &doc); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too many nodes: err = %v, want ErrTooLarge", err)
	}
}

// TestInstanceDocRefusesOversizedMetric: the node bound is the one the
// metric budget implies. A document one node past it is refused before
// anything is built, however few VNFs it names — at a million nodes its
// solve would ask graph.metricSlabs for 12 TB — and one at the bound
// decodes.
func TestInstanceDocRefusesOversizedMetric(t *testing.T) {
	if 12*maxNodes*maxNodes > maxMetricBytes || 12*(maxNodes+1)*(maxNodes+1) <= maxMetricBytes {
		t.Fatalf("maxNodes %d is not the node count a %d-byte metric admits", maxNodes, maxMetricBytes)
	}
	var doc InstanceDoc
	if err := json.Unmarshal(oversizedDoc(maxNodes, 1), &doc); err != nil {
		t.Fatalf("%d nodes: %v", maxNodes, err)
	}
	if doc.Network.NumNodes() != maxNodes {
		t.Fatalf("decoded %d nodes, want %d", doc.Network.NumNodes(), maxNodes)
	}
	for _, nodes := range []int{maxNodes + 1, 1_000_000} {
		if err := json.Unmarshal(oversizedDoc(nodes, 1), &doc); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%d nodes, one VNF: err = %v, want ErrTooLarge", nodes, err)
		}
	}
}
