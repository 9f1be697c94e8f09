// Package netgen generates evaluation instances following the paper's
// Table I: Erdos-Renyi random graphs with Euclidean link costs, server
// capacities drawn uniformly from [1,5], a 30-VNF catalog with random
// pre-deployments, VNF setup costs drawn from N(mu*lbar, (lbar/4)^2)
// where lbar is the network's average shortest-path cost, and random
// multicast tasks. All randomness flows through an injected
// *rand.Rand, so every experiment is reproducible from its seed.
package netgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sftree/internal/graph"
	"sftree/internal/nfv"
)

var (
	// ErrBadConfig reports invalid generator parameters.
	ErrBadConfig = errors.New("netgen: invalid config")
)

// Config controls instance generation. Zero fields fall back to the
// paper's defaults (see PaperConfig).
type Config struct {
	// Nodes is the network size |V|.
	Nodes int
	// EdgeProb is the ER edge probability; 0 picks 2*ln(n)/n, just
	// above the connectivity threshold.
	EdgeProb float64
	// Area is the side of the coordinate square (Euclidean costs).
	Area float64
	// ServerFraction is the fraction of nodes that are servers.
	ServerFraction float64
	// CapacityMin/CapacityMax bound the per-server uniform capacity.
	CapacityMin, CapacityMax int
	// CatalogSize is the number of VNF types.
	CatalogSize int
	// DeployedInstances is how many random pre-deployments to attempt.
	DeployedInstances int
	// SetupCostMu is the paper's mu: setup costs are drawn from
	// N(mu*lbar, (lbar/4)^2) clamped at >= 0.
	SetupCostMu float64
}

// PaperConfig returns Table I's defaults for a given network size and
// average-setup-cost multiplier.
func PaperConfig(nodes int, mu float64) Config {
	return Config{
		Nodes:             nodes,
		ServerFraction:    1.0,
		CapacityMin:       1,
		CapacityMax:       5,
		CatalogSize:       30,
		DeployedInstances: nodes,
		SetupCostMu:       mu,
		Area:              100,
	}
}

func (c Config) normalized() (Config, error) {
	if c.Nodes < 2 {
		return c, fmt.Errorf("%w: %d nodes", ErrBadConfig, c.Nodes)
	}
	if c.EdgeProb == 0 {
		c.EdgeProb = 2 * math.Log(float64(c.Nodes)) / float64(c.Nodes)
	}
	if c.EdgeProb < 0 || c.EdgeProb > 1 {
		return c, fmt.Errorf("%w: edge probability %v", ErrBadConfig, c.EdgeProb)
	}
	if c.Area <= 0 {
		c.Area = 100
	}
	if c.ServerFraction <= 0 || c.ServerFraction > 1 {
		c.ServerFraction = 1
	}
	if c.CapacityMin <= 0 {
		c.CapacityMin = 1
	}
	if c.CapacityMax < c.CapacityMin {
		c.CapacityMax = c.CapacityMin + 4
	}
	if c.CatalogSize <= 0 {
		c.CatalogSize = 30
	}
	if c.SetupCostMu <= 0 {
		c.SetupCostMu = 2
	}
	return c, nil
}

// Generate builds a connected ER network with Euclidean costs and full
// NFV metadata.
func Generate(cfg Config, rng *rand.Rand) (*nfv.Network, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	n := cfg.Nodes
	coords := make([]nfv.Point, n)
	for v := range coords {
		coords[v] = nfv.Point{X: rng.Float64() * cfg.Area, Y: rng.Float64() * cfg.Area}
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < cfg.EdgeProb {
				g.MustAddEdge(u, v, euclid(coords[u], coords[v]))
			}
		}
	}
	connectComponents(g, coords)
	return Materialize(g, coords, cfg, rng)
}

// Materialize wraps a finished topology (e.g. PalmettoNet) with the
// config's NFV metadata: servers, capacities, catalog, setup costs,
// and random pre-deployments.
func Materialize(g *graph.Graph, coords []nfv.Point, cfg Config, rng *rand.Rand) (*nfv.Network, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	catalog := nfv.DefaultCatalog()
	if cfg.CatalogSize < len(catalog) {
		catalog = catalog[:cfg.CatalogSize]
	}
	net := nfv.NewNetwork(g, catalog)
	if err := net.SetCoords(coords); err != nil {
		return nil, err
	}

	n := g.NumNodes()
	numServers := int(math.Round(cfg.ServerFraction * float64(n)))
	if numServers < 1 {
		numServers = 1
	}
	perm := rng.Perm(n)
	sort.Ints(perm[:numServers]) // deterministic server set given the permutation
	for _, v := range perm[:numServers] {
		capacity := cfg.CapacityMin + rng.Intn(cfg.CapacityMax-cfg.CapacityMin+1)
		if err := net.SetServer(v, float64(capacity)); err != nil {
			return nil, err
		}
	}

	// Average shortest-path cost lbar balances link and setup costs.
	lbar := meanShortestPath(net)
	sigma := lbar / 4
	for f := range catalog {
		for _, v := range net.Servers() {
			cost := rng.NormFloat64()*sigma + cfg.SetupCostMu*lbar
			if cost < 0 {
				cost = 0
			}
			if err := net.SetSetupCost(f, v, cost); err != nil {
				return nil, err
			}
		}
	}

	servers := net.Servers()
	for i := 0; i < cfg.DeployedInstances && len(servers) > 0; i++ {
		f := rng.Intn(len(catalog))
		v := servers[rng.Intn(len(servers))]
		if !net.IsDeployed(f, v) && net.FreeCapacity(v) >= catalog[f].Demand {
			if err := net.Deploy(f, v); err != nil {
				return nil, err
			}
		}
	}
	return net, nil
}

// GenerateTask samples a multicast task: a random source, numDest
// distinct random destinations, and a chain of chainLen distinct VNFs.
func GenerateTask(net *nfv.Network, rng *rand.Rand, numDest, chainLen int) (nfv.Task, error) {
	n := net.NumNodes()
	if numDest < 1 || numDest >= n {
		return nfv.Task{}, fmt.Errorf("%w: %d destinations in %d-node network", ErrBadConfig, numDest, n)
	}
	if chainLen < 1 || chainLen > net.CatalogSize() {
		return nfv.Task{}, fmt.Errorf("%w: chain length %d with catalog %d", ErrBadConfig, chainLen, net.CatalogSize())
	}
	perm := rng.Perm(n)
	task := nfv.Task{
		Source:       perm[0],
		Destinations: append([]int(nil), perm[1:1+numDest]...),
		Chain:        make(nfv.SFC, chainLen),
	}
	fperm := rng.Perm(net.CatalogSize())
	copy(task.Chain, fperm[:chainLen])
	return task, nil
}

// GenerateClusteredTask samples a multicast task whose destinations
// form geographic clusters: `clusters` random centers, each claiming
// its `perCluster` nearest nodes. Clustered receivers are the regime
// where a service function *tree* (per-cluster branches) beats a
// single chain, so this generator feeds the branching experiments.
func GenerateClusteredTask(net *nfv.Network, rng *rand.Rand, clusters, perCluster, chainLen int) (nfv.Task, error) {
	n := net.NumNodes()
	want := clusters * perCluster
	if clusters < 1 || perCluster < 1 || want >= n {
		return nfv.Task{}, fmt.Errorf("%w: %d clusters x %d in %d-node network", ErrBadConfig, clusters, perCluster, n)
	}
	if chainLen < 1 || chainLen > net.CatalogSize() {
		return nfv.Task{}, fmt.Errorf("%w: chain length %d with catalog %d", ErrBadConfig, chainLen, net.CatalogSize())
	}
	metric := net.Metric()
	source := rng.Intn(n)
	taken := map[int]bool{source: true}
	var dests []int
	for c := 0; c < clusters; c++ {
		center := rng.Intn(n)
		// Nodes by distance from the center.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return metric.Dist[center][order[a]] < metric.Dist[center][order[b]]
		})
		added := 0
		for _, v := range order {
			if added == perCluster {
				break
			}
			if taken[v] || metric.Dist[center][v] == math.Inf(1) {
				continue
			}
			taken[v] = true
			dests = append(dests, v)
			added++
		}
		if added < perCluster {
			return nfv.Task{}, fmt.Errorf("%w: cluster %d could not claim %d nodes", ErrBadConfig, c, perCluster)
		}
	}
	task := nfv.Task{Source: source, Destinations: dests, Chain: make(nfv.SFC, chainLen)}
	copy(task.Chain, rng.Perm(net.CatalogSize())[:chainLen])
	return task, nil
}

// connectComponents stitches a possibly disconnected ER sample into
// one component by linking each component to its geometrically nearest
// outside node.
func connectComponents(g *graph.Graph, coords []nfv.Point) {
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		// Link the smallest component to its nearest outside node.
		sort.Slice(comps, func(a, b int) bool { return len(comps[a]) < len(comps[b]) })
		small := comps[0]
		inSmall := make(map[int]bool, len(small))
		for _, v := range small {
			inSmall[v] = true
		}
		bestU, bestV, bestD := -1, -1, math.Inf(1)
		for _, u := range small {
			for v := 0; v < g.NumNodes(); v++ {
				if inSmall[v] {
					continue
				}
				if d := euclid(coords[u], coords[v]); d < bestD {
					bestU, bestV, bestD = u, v, d
				}
			}
		}
		g.MustAddEdge(bestU, bestV, bestD)
	}
}

// meanShortestPath averages finite pairwise distances.
func meanShortestPath(net *nfv.Network) float64 {
	m := net.Metric()
	n := net.NumNodes()
	var sum float64
	var count int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := m.Dist[u][v]; d != graph.Inf {
				sum += d
				count++
			}
		}
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}

func euclid(a, b nfv.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}
