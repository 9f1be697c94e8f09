// Package nfv defines the domain model shared by every solver in this
// repository: the NFV-enabled target network (graph, server nodes,
// capacities, VNF catalog, deployment state, setup costs), the
// multicast task (source, destinations, service function chain), the
// embedding produced by a solver, the traffic-delivery cost oracle of
// the paper's objective (1a), and an independent feasibility validator
// for constraints (1b)-(1f).
package nfv

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"sftree/internal/graph"
)

var (
	// ErrNotServer reports a VNF operation on a switch node.
	ErrNotServer = errors.New("nfv: node is not a server")
	// ErrUnknownVNF reports a VNF id outside the catalog.
	ErrUnknownVNF = errors.New("nfv: unknown VNF")
	// ErrCapacityExceeded reports a deployment that overflows a node.
	ErrCapacityExceeded = errors.New("nfv: node capacity exceeded")
	// ErrAlreadyDeployed reports a duplicate deployment.
	ErrAlreadyDeployed = errors.New("nfv: VNF already deployed on node")
	// ErrInvalidTask reports a structurally invalid multicast task.
	ErrInvalidTask = errors.New("nfv: invalid task")
	// ErrInfeasible reports an embedding that violates the problem
	// constraints; the message pinpoints the violated constraint.
	ErrInfeasible = errors.New("nfv: infeasible embedding")
)

// VNF is one virtual network function type from the catalog.
type VNF struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Demand float64 `json:"demand"` // resource units consumed per instance (mu)
}

// Point is a 2-D node coordinate used for Euclidean link costs.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Network is an NFV-enabled target network: an undirected weighted
// graph plus per-node server metadata and per-(VNF, node) deployment
// state. Build it, then treat it as immutable while solving; Metric()
// caches all-pairs shortest paths on first use.
type Network struct {
	g *graph.Graph
	// tab is the configuration: servers, capacities, catalog, setup
	// costs and coordinates. Clones share it (see tables).
	tab *tables
	// deployed holds one bit per (vnf, node) pair, at vnf*n+node.
	deployed []uint64
	// used[v] caches recountUsed(v), so UsedCapacity is one read.
	// Deploy and Undeploy recompute the touched node's entry instead
	// of adding or subtracting the demand: a running float total can
	// differ from the catalog-order sum in the last bit, and capacity
	// comparisons (and so embeddings) must not depend on the order in
	// which instances came and went.
	used []float64
	// metric is the cached all-pairs closure, stamped with the graph
	// generation it was computed at so topology mutations invalidate
	// it instead of silently serving stale distances. metricFn, when
	// set, supplies the closure instead of a local APSP run — the hook
	// faults.State uses to share one closure across materializations
	// of the same degraded topology.
	metric    *graph.Metric
	metricGen uint64
	metricFn  func() *graph.Metric
	// fingerprint hashes the deployed set: the XOR of mixCell(i) over
	// every set bit i of deployed. Deploy and Undeploy toggle one term,
	// so it depends on which instances run, never on the order they came
	// and went in, and it repeats when a network returns to a deployment
	// it had before. Clone copies it.
	fingerprint uint64
	// id is a process-unique incarnation stamp assigned at
	// construction, renewed by every configuration setter (SetServer,
	// SetSetupCost, SetCoords) and shared by clones: networks with the
	// same id have the same configuration. SameState adds the graph and
	// the deployment to it.
	id uint64
}

// mixCell is the fingerprint term of deployment cell i: the (i+1)-th
// output of splitmix64 seeded at zero, so every cell, the first one
// included, contributes a well-mixed nonzero word.
func mixCell(i int) uint64 {
	z := uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// tables is the part of a network that does not change as sessions
// come and go. A network and its clones share one block copy-on-write:
// Clone marks the block shared, and a setter on a network whose block
// is shared copies it first (own), so neither side ever sees the
// other's later changes. The flag is atomic because several goroutines
// may clone one snapshot at once; a block is written only by the one
// network that owns it unshared.
type tables struct {
	shared   atomic.Bool
	coords   []Point
	isServer []bool
	capacity []float64
	catalog  []VNF
	setup    []float64 // [vnf*n+node]
	// index caches ServerList and ServerRows: built on first use by
	// whichever reader gets there, dropped by SetServer.
	index atomic.Pointer[serverIndex]
}

// serverIndex is the server list in ascending order and, per node, its
// position in that list (-1 for a switch).
type serverIndex struct {
	list []int
	rows []int32
}

// netIDs mints process-unique network incarnation IDs.
var netIDs atomic.Uint64

// NewNetwork wraps a finished graph with NFV metadata. All nodes start
// as switches (non-servers); the catalog fixes the universe of VNF
// types. The graph must not be mutated afterwards.
func NewNetwork(g *graph.Graph, catalog []VNF) *Network {
	n := g.NumNodes()
	return &Network{
		g: g,
		tab: &tables{
			isServer: make([]bool, n),
			capacity: make([]float64, n),
			catalog:  append([]VNF(nil), catalog...),
			setup:    make([]float64, len(catalog)*n),
		},
		deployed: make([]uint64, (len(catalog)*n+63)/64),
		used:     make([]float64, n),
		id:       netIDs.Add(1),
	}
}

// own returns net's configuration for writing, copying it first when
// a clone shares it. A configuration write makes net a new incarnation:
// what was built from the old configuration under its id (mod.Cache's
// scaffolds) is never served to it again, and clones keep theirs.
func (net *Network) own() *tables {
	net.id = netIDs.Add(1)
	t := net.tab
	if !t.shared.Load() {
		return t
	}
	c := &tables{
		coords:   slices.Clone(t.coords),
		isServer: slices.Clone(t.isServer),
		capacity: slices.Clone(t.capacity),
		catalog:  slices.Clone(t.catalog),
		setup:    slices.Clone(t.setup),
	}
	c.index.Store(t.index.Load())
	net.tab = c
	return c
}

// cell is (f, v)'s position in the flat catalog × nodes tables. The
// node-indexed read panics on a node out of range, as indexing a
// per-VNF row of nodes did, rather than answer for another VNF's cell;
// it reads configuration, never the deployment state a commit writes,
// so setup-cost readers do not race with Deploy.
func (net *Network) cell(f, v int) int {
	nodes := net.tab.isServer
	_ = nodes[v]
	return f*len(nodes) + v
}

// bit locates the deployment bit of (f, v).
func (net *Network) bit(f, v int) (word int, mask uint64) {
	i := net.cell(f, v)
	return i >> 6, 1 << (i & 63)
}

// Graph returns the underlying graph. Callers must not mutate it.
func (net *Network) Graph() *graph.Graph { return net.g }

// NumNodes returns the node count of the underlying graph.
func (net *Network) NumNodes() int { return net.g.NumNodes() }

// Catalog returns a copy of the VNF catalog.
func (net *Network) Catalog() []VNF {
	return append([]VNF(nil), net.tab.catalog...)
}

// CatalogSize returns the number of VNF types.
func (net *Network) CatalogSize() int { return len(net.tab.catalog) }

// VNF returns the catalog entry for id.
func (net *Network) VNF(id int) (VNF, error) {
	if id < 0 || id >= len(net.tab.catalog) {
		return VNF{}, fmt.Errorf("%w: id %d", ErrUnknownVNF, id)
	}
	return net.tab.catalog[id], nil
}

// SetCoords stores node coordinates, one per node (used only for
// reporting; costs are fixed at edge-creation time).
func (net *Network) SetCoords(coords []Point) error {
	if len(coords) != net.NumNodes() {
		return fmt.Errorf("nfv: %d coordinates for %d nodes", len(coords), net.NumNodes())
	}
	net.own().coords = append([]Point(nil), coords...)
	return nil
}

// Coords returns the node coordinates, or nil if unset.
func (net *Network) Coords() []Point {
	if net.tab.coords == nil {
		return nil
	}
	return append([]Point(nil), net.tab.coords...)
}

// SetServer marks node v as a server with the given deployment capacity.
func (net *Network) SetServer(v int, capacity float64) error {
	if v < 0 || v >= net.g.NumNodes() {
		return fmt.Errorf("%w: node %d", graph.ErrNodeOutOfRange, v)
	}
	if capacity < 0 {
		return fmt.Errorf("nfv: negative capacity %v for node %d", capacity, v)
	}
	t := net.own()
	t.isServer[v] = true
	t.capacity[v] = capacity
	t.index.Store(nil) // invalidate the cached server list
	return nil
}

// IsServer reports whether v can host VNF instances.
func (net *Network) IsServer(v int) bool {
	return v >= 0 && v < len(net.tab.isServer) && net.tab.isServer[v]
}

// Capacity returns node v's total deployment capacity.
func (net *Network) Capacity(v int) float64 { return net.tab.capacity[v] }

// Servers returns the IDs of all server nodes. The returned slice is
// a copy and may be modified freely; hot loops that only iterate
// should prefer ServerList.
func (net *Network) Servers() []int {
	list := net.ServerList()
	if list == nil {
		return nil
	}
	return append([]int(nil), list...)
}

// ServerList returns the server node IDs in ascending order. The
// slice is cached and shared with clones: callers must treat it as
// read-only (use Servers for a mutable copy). It is rebuilt after
// SetServer.
func (net *Network) ServerList() []int { return net.servers().list }

// ServerRows maps every node to its position in ServerList, -1 for a
// switch. Cached and shared like ServerList; read-only.
func (net *Network) ServerRows() []int32 { return net.servers().rows }

// servers returns the cached server index, building it on first use.
// Concurrent first uses may each build one; they are equal.
func (net *Network) servers() *serverIndex {
	t := net.tab
	if idx := t.index.Load(); idx != nil {
		return idx
	}
	idx := &serverIndex{rows: make([]int32, len(t.isServer))}
	for v, ok := range t.isServer {
		idx.rows[v] = -1
		if ok {
			idx.rows[v] = int32(len(idx.list))
			idx.list = append(idx.list, v)
		}
	}
	t.index.Store(idx)
	return idx
}

// SetSetupCost sets the cost gamma of deploying a new instance of VNF f
// on node v; +Inf means v cannot host f.
func (net *Network) SetSetupCost(f, v int, cost float64) error {
	if f < 0 || f >= len(net.tab.catalog) {
		return fmt.Errorf("%w: id %d", ErrUnknownVNF, f)
	}
	if v < 0 || v >= net.g.NumNodes() {
		return fmt.Errorf("%w: node %d", graph.ErrNodeOutOfRange, v)
	}
	if cost < 0 || math.IsNaN(cost) {
		return fmt.Errorf("nfv: negative setup cost %v", cost)
	}
	net.own().setup[net.cell(f, v)] = cost
	return nil
}

// SetupCost returns the cost of deploying a new instance of f on v;
// zero when an instance is already deployed there (paper §IV-D).
func (net *Network) SetupCost(f, v int) float64 {
	i := net.cell(f, v)
	if net.deployed[i>>6]&(1<<(i&63)) != 0 {
		return 0
	}
	return net.tab.setup[i]
}

// RawSetupCost returns the configured setup cost ignoring deployment.
func (net *Network) RawSetupCost(f, v int) float64 {
	return net.tab.setup[net.cell(f, v)]
}

// Deploy records a pre-deployed instance of f on v, consuming capacity.
func (net *Network) Deploy(f, v int) error {
	if f < 0 || f >= len(net.tab.catalog) {
		return fmt.Errorf("%w: id %d", ErrUnknownVNF, f)
	}
	if !net.IsServer(v) {
		return fmt.Errorf("%w: node %d", ErrNotServer, v)
	}
	if net.IsDeployed(f, v) {
		return fmt.Errorf("%w: vnf %d node %d", ErrAlreadyDeployed, f, v)
	}
	if demand := net.tab.catalog[f].Demand; net.UsedCapacity(v)+demand > net.Capacity(v)+1e-9 {
		return fmt.Errorf("%w: node %d used %v + %v > cap %v",
			ErrCapacityExceeded, v, net.UsedCapacity(v), demand, net.Capacity(v))
	}
	i := net.cell(f, v)
	net.deployed[i>>6] |= 1 << (i & 63)
	net.used[v] = net.recountUsed(v)
	net.fingerprint ^= mixCell(i)
	return nil
}

// Undeploy removes a deployed instance of f from v, freeing its
// capacity. It is the teardown half of dynamic session management.
func (net *Network) Undeploy(f, v int) error {
	if f < 0 || f >= len(net.tab.catalog) {
		return fmt.Errorf("%w: id %d", ErrUnknownVNF, f)
	}
	if v < 0 || v >= net.g.NumNodes() || !net.IsDeployed(f, v) {
		return fmt.Errorf("nfv: no instance of VNF %d on node %d to undeploy", f, v)
	}
	i := net.cell(f, v)
	net.deployed[i>>6] &^= 1 << (i & 63)
	net.used[v] = net.recountUsed(v)
	net.fingerprint ^= mixCell(i)
	return nil
}

// DeployFingerprint returns a 64-bit hash of the deployed (VNF, node)
// set, kept in O(1) by Deploy and Undeploy. Equal deployments have
// equal fingerprints whatever path led to them; unequal ones almost
// always differ, and a cache that must be exact confirms a match with
// SameDeployment.
func (net *Network) DeployFingerprint() uint64 { return net.fingerprint }

// DeploymentBits returns a copy of the deployment bitset: one bit per
// (VNF, node) cell, the form SameDeployment compares.
func (net *Network) DeploymentBits() []uint64 { return slices.Clone(net.deployed) }

// SameDeployment reports whether bits, as DeploymentBits returns them,
// is net's deployment bit for bit.
func (net *Network) SameDeployment(bits []uint64) bool {
	return slices.Equal(net.deployed, bits)
}

// SameState reports whether o is in net's state, by content: the same
// incarnation (so the same configuration), the same graph object, and
// the same deployment bit for bit. A network's graph is fixed when it
// is wrapped (NewNetwork), so the same graph object is the same graph
// generation. A solve on one of two networks in the same state is the
// solve on the other, which makes this the test the dynamic manager
// commits under.
func (net *Network) SameState(o *Network) bool {
	return net.id == o.id && net.g == o.g &&
		net.fingerprint == o.fingerprint && slices.Equal(net.deployed, o.deployed)
}

// IncarnationID returns the process-unique stamp NewNetwork assigned
// to this network, renewed by each configuration setter; Clone
// preserves it, so a snapshot and its parent share the id while
// independently constructed or reconfigured networks never do.
func (net *Network) IncarnationID() uint64 { return net.id }

// IsDeployed reports whether an instance of f already runs on v.
func (net *Network) IsDeployed(f, v int) bool {
	w, mask := net.bit(f, v)
	return net.deployed[w]&mask != 0
}

// UsedCapacity returns the resource units consumed on v by
// pre-deployed instances.
func (net *Network) UsedCapacity(v int) float64 { return net.used[v] }

// recountUsed sums the demands of the instances deployed on v in
// catalog order, the definition the used vector caches.
func (net *Network) recountUsed(v int) float64 {
	var used float64
	for f, vnf := range net.tab.catalog {
		if net.IsDeployed(f, v) {
			used += vnf.Demand
		}
	}
	return used
}

// FreeCapacity returns the resource units still available on v for new
// instances.
func (net *Network) FreeCapacity(v int) float64 {
	return net.Capacity(v) - net.UsedCapacity(v)
}

// Metric returns the cached all-pairs shortest-path metric, computing
// it on first use and recomputing when the graph has mutated since
// (the cache is stamped with graph.Generation). First use is not
// goroutine-safe; warm the cache before sharing the network across
// solvers. The metric is graph.APSP's: one Dijkstra row per source,
// with one tie-break at every network size and density.
func (net *Network) Metric() *graph.Metric {
	if net.metric != nil && net.metricGen == net.g.Generation() {
		metricHits.Add(1)
		return net.metric
	}
	metricMisses.Add(1)
	if net.metricFn != nil {
		net.metric = net.metricFn()
	} else {
		net.metric = net.g.APSP()
	}
	net.metricGen = net.g.Generation()
	return net.metric
}

// MetricCached reports whether the next Metric call returns the
// cached closure without an APSP build. Solver instrumentation uses
// it to attribute zero APSP time to warm-metric solves.
func (net *Network) MetricCached() bool {
	return net.metric != nil && net.metricGen == net.g.Generation()
}

// SetMetricSupplier installs fn as the source of the metric closure:
// the next Metric call invokes it instead of running APSP locally.
// The supplier must return a closure valid for the network's current
// topology. faults.State uses this to hand repeated materializations
// of one degraded topology the same shared closure, eliminating the
// per-Rebase APSP rebuild.
func (net *Network) SetMetricSupplier(fn func() *graph.Metric) {
	net.metricFn = fn
	net.metric = nil
}

// Clone returns a network that behaves as a deep copy. It copies the
// deployment state (one bit per (VNF, node) pair and the per-node used
// capacity) and shares the rest: the immutable graph, the metric, and
// the configuration tables, copy-on-write (see tables). Cloning one
// network from several goroutines at once is safe.
func (net *Network) Clone() *Network {
	if t := net.tab; !t.shared.Load() {
		t.shared.Store(true)
	}
	return &Network{
		g:           net.g,
		tab:         net.tab,
		deployed:    slices.Clone(net.deployed),
		used:        slices.Clone(net.used),
		metric:      net.metric,
		metricGen:   net.metricGen,
		metricFn:    net.metricFn,
		fingerprint: net.fingerprint,
		id:          net.id,
	}
}
