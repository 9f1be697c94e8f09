// Package faults models substrate failures for the NFV network: links
// going down and coming back, server nodes crashing and recovering,
// and individual VNF instances dying. The paper embeds SFTs on a
// static substrate; the dynamic setting its related work points at
// (service overlay forests, re-embedding under substrate change) needs
// an explicit failure model to exercise recovery.
//
// The model is deterministic and replayable: a State accumulates fault
// events and materializes the *degraded* network they imply — a fresh
// nfv.Network over the surviving topology, carrying over the current
// deployment state minus whatever died. Generate draws seeded
// schedules of events (see schedule.go) and events encode to JSON, so
// the op scripts that carry them (internal/sim) replay bit for bit from
// their seed.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"sftree/internal/graph"
	"sftree/internal/nfv"
)

var (
	// ErrBadEvent reports an event referencing elements outside the
	// base network.
	ErrBadEvent = errors.New("faults: invalid event")
)

// Kind classifies a fault event.
type Kind int

// Fault kinds. Down events are idempotent (downing a dead link is a
// no-op), as are their up counterparts.
const (
	// LinkDown removes the link {U,V} from the substrate.
	LinkDown Kind = iota + 1
	// LinkUp restores a previously failed link.
	LinkUp
	// NodeDown crashes node Node: all incident links vanish and, if it
	// is a server, every VNF instance on it dies with it.
	NodeDown
	// NodeUp restores a crashed node (its links return; instances lost
	// in the crash stay lost until re-deployed).
	NodeUp
	// InstanceDown kills the running instance of VNF on Node without
	// touching the topology. One-shot: the slot is immediately free
	// for re-deployment.
	InstanceDown
)

var kindNames = map[Kind]string{
	LinkDown:     "link_down",
	LinkUp:       "link_up",
	NodeDown:     "node_down",
	NodeUp:       "node_up",
	InstanceDown: "instance_down",
}

// String names the kind for logs and scenario files.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind by name, keeping scenario files
// human-editable.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kk, name := range kindNames {
		if name == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("%w: unknown kind %q", ErrBadEvent, s)
}

// Event is one substrate change. Link events use U/V; node events use
// Node; instance events use VNF and Node.
type Event struct {
	Kind Kind `json:"kind"`
	U    int  `json:"u,omitempty"`
	V    int  `json:"v,omitempty"`
	Node int  `json:"node,omitempty"`
	VNF  int  `json:"vnf,omitempty"`
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("%s %d-%d", e.Kind, e.U, e.V)
	case NodeDown, NodeUp:
		return fmt.Sprintf("%s %d", e.Kind, e.Node)
	case InstanceDown:
		return fmt.Sprintf("%s vnf=%d node=%d", e.Kind, e.VNF, e.Node)
	default:
		return e.Kind.String()
	}
}

// State accumulates applied fault events against a base network and
// materializes the degraded substrate they imply. The base network is
// the pristine topology reference and is never mutated.
type State struct {
	base      *nfv.Network
	downLinks map[[2]int]bool
	downNodes map[int]bool
	// kills holds instance crashes applied since the last Materialize;
	// they are one-shot (consumed by the next materialization).
	kills [][2]int // (vnf, node)
	// metricCache shares one APSP closure across materializations of
	// the same degraded topology, keyed by the canonical down-set.
	// Deployments and kills never change distances, so a fault-flap
	// sequence (down, up, down ...) re-solves on a warm metric instead
	// of paying an APSP rebuild per Materialize.
	metricMu    sync.Mutex
	metricCache map[string]*graph.Metric
}

// NewState tracks faults against the given pristine network.
func NewState(base *nfv.Network) *State {
	return &State{
		base:        base,
		downLinks:   make(map[[2]int]bool),
		downNodes:   make(map[int]bool),
		metricCache: make(map[string]*graph.Metric),
	}
}

// topoSignature canonically encodes the current down-set; states with
// equal signatures materialize identical graphs (same edges in the
// same order with the same costs), so their metrics are shareable.
func (s *State) topoSignature() string {
	nodes := make([]int, 0, len(s.downNodes))
	for v := range s.downNodes {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	links := make([][2]int, 0, len(s.downLinks))
	for l := range s.downLinks {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	var b strings.Builder
	for _, v := range nodes {
		fmt.Fprintf(&b, "n%d;", v)
	}
	for _, l := range links {
		fmt.Fprintf(&b, "l%d-%d;", l[0], l[1])
	}
	return b.String()
}

func canonLink(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Apply records one fault event, validating it against the base
// topology. Down/up events are idempotent.
func (s *State) Apply(ev Event) error {
	n := s.base.NumNodes()
	switch ev.Kind {
	case LinkDown, LinkUp:
		if _, ok := s.base.Graph().HasEdge(ev.U, ev.V); !ok {
			return fmt.Errorf("%w: no link %d-%d in the base network", ErrBadEvent, ev.U, ev.V)
		}
		if ev.Kind == LinkDown {
			s.downLinks[canonLink(ev.U, ev.V)] = true
		} else {
			delete(s.downLinks, canonLink(ev.U, ev.V))
		}
	case NodeDown, NodeUp:
		if ev.Node < 0 || ev.Node >= n {
			return fmt.Errorf("%w: node %d out of range", ErrBadEvent, ev.Node)
		}
		if ev.Kind == NodeDown {
			s.downNodes[ev.Node] = true
		} else {
			delete(s.downNodes, ev.Node)
		}
	case InstanceDown:
		if ev.Node < 0 || ev.Node >= n {
			return fmt.Errorf("%w: node %d out of range", ErrBadEvent, ev.Node)
		}
		if _, err := s.base.VNF(ev.VNF); err != nil {
			return fmt.Errorf("%w: %v", ErrBadEvent, err)
		}
		s.kills = append(s.kills, [2]int{ev.VNF, ev.Node})
	default:
		return fmt.Errorf("%w: kind %d", ErrBadEvent, int(ev.Kind))
	}
	return nil
}

// LinkIsDown reports whether the link {u,v} is currently failed.
func (s *State) LinkIsDown(u, v int) bool { return s.downLinks[canonLink(u, v)] }

// DownLinks returns the number of currently failed links.
func (s *State) DownLinks() int { return len(s.downLinks) }

// DownNodes returns the number of currently crashed nodes.
func (s *State) DownNodes() int { return len(s.downNodes) }

// Materialize builds the degraded network: the base topology minus
// failed links and crashed nodes (with their incident links), carrying
// over every VNF deployment of deployFrom that survives — instances on
// crashed nodes and instances killed since the last materialization
// are dropped. deployFrom is typically the network currently managed
// by a dynamic.Manager, so sessions' installed instances persist
// across substrate changes; pass the base network for a cold start.
// Pending instance kills are consumed.
func (s *State) Materialize(deployFrom *nfv.Network) (*nfv.Network, error) {
	if deployFrom.NumNodes() != s.base.NumNodes() {
		return nil, fmt.Errorf("faults: deployment source has %d nodes, base %d",
			deployFrom.NumNodes(), s.base.NumNodes())
	}
	g := graph.New(s.base.NumNodes())
	for _, e := range s.base.Graph().Edges() {
		if s.downLinks[canonLink(e.U, e.V)] || s.downNodes[e.U] || s.downNodes[e.V] {
			continue
		}
		if _, err := g.AddEdge(e.U, e.V, e.Cost); err != nil {
			return nil, fmt.Errorf("faults: rebuild: %w", err)
		}
	}

	net := nfv.NewNetwork(g, s.base.Catalog())
	if coords := s.base.Coords(); coords != nil {
		if err := net.SetCoords(coords); err != nil {
			return nil, err
		}
	}
	for _, v := range s.base.Servers() {
		if s.downNodes[v] {
			continue
		}
		if err := net.SetServer(v, s.base.Capacity(v)); err != nil {
			return nil, err
		}
		for f := 0; f < s.base.CatalogSize(); f++ {
			if err := net.SetSetupCost(f, v, s.base.RawSetupCost(f, v)); err != nil {
				return nil, err
			}
		}
	}

	// Metric reuse: a pristine down-set reproduces the base topology
	// exactly, so the base network's own cached metric applies; any
	// other down-set is served from the per-signature cache, built on
	// first demand against this materialization's graph.
	if len(s.downLinks) == 0 && len(s.downNodes) == 0 {
		// A pristine down-set is served by the base network's own metric;
		// count it as a cache hit — no APSP runs for this materialization.
		net.SetMetricSupplier(func() *graph.Metric {
			apspHits.Add(1)
			return s.base.Metric()
		})
	} else {
		sig, gg := s.topoSignature(), g
		net.SetMetricSupplier(func() *graph.Metric {
			s.metricMu.Lock()
			defer s.metricMu.Unlock()
			if m, ok := s.metricCache[sig]; ok {
				apspHits.Add(1)
				return m
			}
			apspMisses.Add(1)
			// Bound the cache: a long chaos run can visit many distinct
			// down-sets, and each closure is O(n^2) memory.
			if len(s.metricCache) >= 64 {
				s.metricCache = make(map[string]*graph.Metric)
			}
			m := gg.APSPAuto()
			s.metricCache[sig] = m
			return m
		})
	}

	killed := make(map[[2]int]bool, len(s.kills))
	for _, kv := range s.kills {
		killed[kv] = true
	}
	s.kills = nil
	for f := 0; f < s.base.CatalogSize(); f++ {
		for v := 0; v < s.base.NumNodes(); v++ {
			if !deployFrom.IsDeployed(f, v) || s.downNodes[v] || killed[[2]int{f, v}] {
				continue
			}
			if err := net.Deploy(f, v); err != nil {
				return nil, fmt.Errorf("faults: carry deployment vnf=%d node=%d: %w", f, v, err)
			}
		}
	}
	return net, nil
}
