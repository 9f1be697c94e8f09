package nfv

import (
	"encoding/json"
	"errors"
	"fmt"

	"sftree/internal/graph"
)

// maxDecodedNodes bounds instance documents so hostile or corrupt
// input cannot trigger unbounded allocations in the decoder.
const maxDecodedNodes = 1_000_000

// maxDecodedCells bounds catalog size × node count in an instance
// document. A network keeps a deployment flag and a setup cost per
// (VNF, node) pair, so this caps what NewNetwork allocates for them at
// about 38 MB, however short the document describing it is.
const maxDecodedCells = 1 << 22

// ErrTooLarge reports an instance document describing a network larger
// than the decoder builds: more than maxDecodedNodes nodes, or more
// than maxDecodedCells (VNF, node) pairs.
var ErrTooLarge = errors.New("nfv: instance too large")

// edgeJSON serializes one undirected edge.
type edgeJSON struct {
	U    int     `json:"u"`
	V    int     `json:"v"`
	Cost float64 `json:"cost"`
}

// serverJSON serializes one server node's metadata.
type serverJSON struct {
	Node     int     `json:"node"`
	Capacity float64 `json:"capacity"`
}

// deployJSON serializes one pre-deployed instance.
type deployJSON struct {
	VNF  int `json:"vnf"`
	Node int `json:"node"`
}

// setupJSON serializes one (vnf, node) setup cost entry.
type setupJSON struct {
	VNF  int     `json:"vnf"`
	Node int     `json:"node"`
	Cost float64 `json:"cost"`
}

// networkJSON is the wire form of a Network.
type networkJSON struct {
	Nodes    int          `json:"nodes"`
	Edges    []edgeJSON   `json:"edges"`
	Coords   []Point      `json:"coords,omitempty"`
	Catalog  []VNF        `json:"catalog"`
	Servers  []serverJSON `json:"servers"`
	Deployed []deployJSON `json:"deployed,omitempty"`
	Setup    []setupJSON  `json:"setup_costs,omitempty"`
}

// Instance document: a Network plus a Task, the unit consumed by
// cmd/sftembed and produced by cmd/sftgen.
type InstanceDoc struct {
	Network *Network `json:"-"`
	Task    Task     `json:"task"`
}

type instanceDocJSON struct {
	Network networkJSON `json:"network"`
	Task    Task        `json:"task"`
}

// MarshalJSON implements json.Marshaler for InstanceDoc.
func (doc InstanceDoc) MarshalJSON() ([]byte, error) {
	net := doc.Network
	if net == nil {
		return nil, fmt.Errorf("nfv: marshal: nil network")
	}
	nj := networkJSON{
		Nodes:   net.NumNodes(),
		Catalog: net.Catalog(),
		Coords:  net.Coords(),
	}
	for _, e := range net.Graph().Edges() {
		nj.Edges = append(nj.Edges, edgeJSON{U: e.U, V: e.V, Cost: e.Cost})
	}
	for _, v := range net.Servers() {
		nj.Servers = append(nj.Servers, serverJSON{Node: v, Capacity: net.Capacity(v)})
	}
	for f := 0; f < net.CatalogSize(); f++ {
		for v := 0; v < net.NumNodes(); v++ {
			if net.IsDeployed(f, v) {
				nj.Deployed = append(nj.Deployed, deployJSON{VNF: f, Node: v})
			}
			if c := net.RawSetupCost(f, v); c != 0 {
				nj.Setup = append(nj.Setup, setupJSON{VNF: f, Node: v, Cost: c})
			}
		}
	}
	return json.Marshal(instanceDocJSON{Network: nj, Task: doc.Task})
}

// UnmarshalJSON implements json.Unmarshaler for InstanceDoc.
func (doc *InstanceDoc) UnmarshalJSON(data []byte) error {
	var raw instanceDocJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("nfv: unmarshal instance: %w", err)
	}
	nodes, vnfs := raw.Network.Nodes, len(raw.Network.Catalog)
	if nodes < 0 {
		return fmt.Errorf("nfv: unmarshal instance: negative node count %d", nodes)
	}
	if nodes > maxDecodedNodes {
		return fmt.Errorf("%w: %d nodes, at most %d", ErrTooLarge, nodes, maxDecodedNodes)
	}
	if vnfs > 0 && nodes > maxDecodedCells/vnfs {
		return fmt.Errorf("%w: %d VNFs × %d nodes, at most %d pairs", ErrTooLarge, vnfs, nodes, maxDecodedCells)
	}
	g := graph.New(raw.Network.Nodes)
	for _, e := range raw.Network.Edges {
		if _, err := g.AddEdge(e.U, e.V, e.Cost); err != nil {
			return fmt.Errorf("nfv: unmarshal edge: %w", err)
		}
	}
	net := NewNetwork(g, raw.Network.Catalog)
	if raw.Network.Coords != nil {
		net.SetCoords(raw.Network.Coords)
	}
	for _, s := range raw.Network.Servers {
		if err := net.SetServer(s.Node, s.Capacity); err != nil {
			return fmt.Errorf("nfv: unmarshal server: %w", err)
		}
	}
	for _, s := range raw.Network.Setup {
		if err := net.SetSetupCost(s.VNF, s.Node, s.Cost); err != nil {
			return fmt.Errorf("nfv: unmarshal setup cost: %w", err)
		}
	}
	for _, d := range raw.Network.Deployed {
		if err := net.Deploy(d.VNF, d.Node); err != nil {
			return fmt.Errorf("nfv: unmarshal deployment: %w", err)
		}
	}
	doc.Network = net
	doc.Task = raw.Task
	return nil
}
