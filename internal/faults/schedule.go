package faults

import (
	"fmt"
	"math/rand"

	"sftree/internal/nfv"
)

// GenConfig tunes seeded schedule generation. Weights select the fault
// kind per event; a recovery event (link/node up) is drawn with
// RecoverProb whenever something is down, keeping long schedules from
// eroding the whole substrate.
type GenConfig struct {
	// Events is the schedule length.
	Events int
	// LinkWeight, NodeWeight and InstanceWeight are the relative
	// frequencies of the three fault classes (zero-sum falls back to
	// links only).
	LinkWeight, NodeWeight, InstanceWeight float64
	// RecoverProb is the chance an event heals an existing fault
	// instead of injecting a new one (when anything is down).
	RecoverProb float64
}

// DefaultGenConfig returns a link-heavy mix: 70% link faults, 15% node
// crashes, 15% instance kills, 30% recovery pressure.
func DefaultGenConfig(events int) GenConfig {
	return GenConfig{
		Events:         events,
		LinkWeight:     0.7,
		NodeWeight:     0.15,
		InstanceWeight: 0.15,
		RecoverProb:    0.3,
	}
}

// Generate draws a seeded fault schedule valid for the network: link
// events name real links, node events name real nodes, instance kills
// prefer instances deployed in the base network. All randomness flows
// through rng, so schedules are reproducible from the seed.
func Generate(net *nfv.Network, cfg GenConfig, rng *rand.Rand) ([]Event, error) {
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("faults: generate %d events", cfg.Events)
	}
	edges := net.Graph().Edges()
	servers := net.Servers()
	if len(edges) == 0 || len(servers) == 0 {
		return nil, fmt.Errorf("faults: generate on a network with %d edges, %d servers", len(edges), len(servers))
	}
	// Concurrent damage is capped at a tenth of the links and of the
	// nodes (at least one each); a fault drawn past its cap is redrawn.
	maxLinks, maxNodes := max(1, len(edges)/10), max(1, net.NumNodes()/10)
	wl, wn, wi := cfg.LinkWeight, cfg.NodeWeight, cfg.InstanceWeight
	if wl+wn+wi <= 0 {
		wl = 1
	}

	var deployed [][2]int
	for f := 0; f < net.CatalogSize(); f++ {
		for v := 0; v < net.NumNodes(); v++ {
			if net.IsDeployed(f, v) {
				deployed = append(deployed, [2]int{f, v})
			}
		}
	}

	events := make([]Event, 0, cfg.Events)
	// Down-sets are kept as slices (plus membership maps) so recovery
	// picks are deterministic under the injected rng; map iteration
	// order would break same-seed reproducibility.
	linkDown := make(map[[2]int]bool)
	nodeDown := make(map[int]bool)
	var downLinks [][2]int
	var downNodes []int

	for len(events) < cfg.Events {
		somethingDown := len(downLinks)+len(downNodes) > 0
		if somethingDown && rng.Float64() < cfg.RecoverProb {
			if len(downLinks) > 0 && (len(downNodes) == 0 || rng.Intn(2) == 0) {
				i := rng.Intn(len(downLinks))
				l := downLinks[i]
				downLinks[i] = downLinks[len(downLinks)-1]
				downLinks = downLinks[:len(downLinks)-1]
				delete(linkDown, l)
				events = append(events, Event{Kind: LinkUp, U: l[0], V: l[1]})
			} else {
				i := rng.Intn(len(downNodes))
				v := downNodes[i]
				downNodes[i] = downNodes[len(downNodes)-1]
				downNodes = downNodes[:len(downNodes)-1]
				delete(nodeDown, v)
				events = append(events, Event{Kind: NodeUp, Node: v})
			}
			continue
		}
		switch r := rng.Float64() * (wl + wn + wi); {
		case r < wl:
			if len(downLinks) >= maxLinks {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			key := canonLink(e.U, e.V)
			if linkDown[key] {
				continue
			}
			linkDown[key] = true
			downLinks = append(downLinks, key)
			events = append(events, Event{Kind: LinkDown, U: key[0], V: key[1]})
		case r < wl+wn:
			if len(downNodes) >= maxNodes {
				continue
			}
			v := servers[rng.Intn(len(servers))]
			if nodeDown[v] {
				continue
			}
			nodeDown[v] = true
			downNodes = append(downNodes, v)
			events = append(events, Event{Kind: NodeDown, Node: v})
		default:
			if len(deployed) == 0 {
				continue
			}
			kv := deployed[rng.Intn(len(deployed))]
			events = append(events, Event{Kind: InstanceDown, VNF: kv[0], Node: kv[1]})
		}
	}
	return events, nil
}
