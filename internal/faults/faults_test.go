package faults

import (
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// testNet builds a 4-node diamond: 0-1, 0-2, 1-3, 2-3, servers at 1
// and 2 (capacity 2), one VNF deployed at node 1.
func testNet(t *testing.T) *nfv.Network {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(2, 3, 1)
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f0", Demand: 1}})
	for _, v := range []int{1, 2} {
		if err := net.SetServer(v, 2); err != nil {
			t.Fatal(err)
		}
		if err := net.SetSetupCost(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLinkDownUpMaterialize(t *testing.T) {
	base := testNet(t)
	st := NewState(base)
	if err := st.Apply(Event{Kind: LinkDown, U: 1, V: 3}); err != nil {
		t.Fatal(err)
	}
	if !st.LinkIsDown(3, 1) {
		t.Fatal("canonical link-down query failed")
	}
	degraded, err := st.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := degraded.Graph().HasEdge(1, 3); ok {
		t.Fatal("failed link survived materialization")
	}
	if _, ok := degraded.Graph().HasEdge(0, 1); !ok {
		t.Fatal("healthy link dropped")
	}
	if !degraded.IsDeployed(0, 1) {
		t.Fatal("deployment not carried over")
	}
	// Heal and re-materialize: full topology returns.
	if err := st.Apply(Event{Kind: LinkUp, U: 1, V: 3}); err != nil {
		t.Fatal(err)
	}
	healed, err := st.Materialize(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Graph().NumEdges() != base.Graph().NumEdges() {
		t.Fatalf("healed network has %d edges, want %d", healed.Graph().NumEdges(), base.Graph().NumEdges())
	}
}

func TestNodeCrashKillsInstancesAndLinks(t *testing.T) {
	base := testNet(t)
	st := NewState(base)
	if err := st.Apply(Event{Kind: NodeDown, Node: 1}); err != nil {
		t.Fatal(err)
	}
	degraded, err := st.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.IsServer(1) {
		t.Fatal("crashed node still a server")
	}
	if degraded.IsDeployed(0, 1) {
		t.Fatal("instance survived its node's crash")
	}
	if _, ok := degraded.Graph().HasEdge(0, 1); ok {
		t.Fatal("crashed node kept an incident link")
	}
	// Recovery restores topology and capacity but NOT the lost instance.
	if err := st.Apply(Event{Kind: NodeUp, Node: 1}); err != nil {
		t.Fatal(err)
	}
	healed, err := st.Materialize(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if !healed.IsServer(1) || healed.Capacity(1) != 2 {
		t.Fatal("recovered node lost its server role or capacity")
	}
	if healed.IsDeployed(0, 1) {
		t.Fatal("crashed instance resurrected on node recovery")
	}
}

func TestInstanceKillIsOneShot(t *testing.T) {
	base := testNet(t)
	st := NewState(base)
	if err := st.Apply(Event{Kind: InstanceDown, VNF: 0, Node: 1}); err != nil {
		t.Fatal(err)
	}
	degraded, err := st.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.IsDeployed(0, 1) {
		t.Fatal("killed instance survived")
	}
	// Re-deploy and re-materialize: the kill must not repeat.
	if err := degraded.Deploy(0, 1); err != nil {
		t.Fatal(err)
	}
	again, err := st.Materialize(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if !again.IsDeployed(0, 1) {
		t.Fatal("one-shot kill repeated on the next materialization")
	}
}

func TestApplyRejectsBadEvents(t *testing.T) {
	st := NewState(testNet(t))
	for _, ev := range []Event{
		{Kind: LinkDown, U: 0, V: 3}, // not an edge
		{Kind: NodeDown, Node: 9},    // out of range
		{Kind: InstanceDown, VNF: 5}, // unknown VNF
		{Kind: Kind(99)},             // unknown kind
	} {
		if err := st.Apply(ev); !errors.Is(err, ErrBadEvent) {
			t.Errorf("Apply(%v) = %v, want ErrBadEvent", ev, err)
		}
	}
}

// TestScheduleRoundTrip: a schedule's events survive a JSON round trip
// (kinds encode by name), and an unknown kind is refused.
func TestScheduleRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: LinkDown, U: 1, V: 3},
		{Kind: InstanceDown, VNF: 0, Node: 1},
		{Kind: LinkUp, U: 1, V: 3},
	}
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, events) {
		t.Fatalf("round trip changed the events: %+v != %+v", got, events)
	}
	if err := json.Unmarshal([]byte(`[{"kind":"meteor"}]`), &got); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("unknown kind: err=%v, want ErrBadEvent", err)
	}
}

func TestGenerateIsSeededAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(net, DefaultGenConfig(40), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(net, DefaultGenConfig(40), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Every generated event must apply cleanly.
	st := NewState(net)
	for _, ev := range a {
		if err := st.Apply(ev); err != nil {
			t.Fatalf("generated event %v invalid: %v", ev, err)
		}
	}
	if _, err := st.Materialize(net); err != nil {
		t.Fatal(err)
	}
}

// replay applies events one by one, materializing the degraded network
// after each and carrying deployments over from the previous one, the
// way a manager's substrate follows a fault schedule.
func replay(t *testing.T, base *nfv.Network, events []Event) (*State, *nfv.Network) {
	t.Helper()
	st, cur := NewState(base), base
	for i, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		var err error
		if cur, err = st.Materialize(cur); err != nil {
			t.Fatalf("event %d (%v): materialize: %v", i, ev, err)
		}
	}
	return st, cur
}

func TestReplayerSteps(t *testing.T) {
	base := testNet(t)
	st, cur := replay(t, base, []Event{
		{Kind: LinkDown, U: 1, V: 3},
		{Kind: LinkDown, U: 2, V: 3},
		{Kind: LinkUp, U: 1, V: 3},
	})
	if st.DownLinks() != 1 {
		t.Fatalf("down links = %d, want 1", st.DownLinks())
	}
	if cur.Graph().NumEdges() != base.Graph().NumEdges()-1 {
		t.Fatalf("degraded network has %d edges, want %d", cur.Graph().NumEdges(), base.Graph().NumEdges()-1)
	}
}

// TestMaterializeCopiesConfiguration: with no fault applied, a
// materialization answers every configuration query the way its base
// network does — topology, servers, capacities, raw setup costs,
// coordinates, catalog — and holds deployFrom's deployments, not the
// base's.
func TestMaterializeCopiesConfiguration(t *testing.T) {
	base, err := netgen.Generate(netgen.PaperConfig(30, 2), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	from := base.Clone()
	added := false
	for _, v := range from.Servers() {
		for f := 0; f < from.CatalogSize() && !added; f++ {
			added = !from.IsDeployed(f, v) && from.Deploy(f, v) == nil
		}
	}
	if !added {
		t.Fatal("no free server to deploy on")
	}
	net, err := NewState(base).Materialize(from)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(net.Graph().Edges(), base.Graph().Edges()) {
		t.Error("edges differ")
	}
	if !slices.Equal(net.Catalog(), base.Catalog()) {
		t.Error("catalog differs")
	}
	if c := net.Coords(); c == nil || !slices.Equal(c, base.Coords()) {
		t.Errorf("coords = %v, want %v", c, base.Coords())
	}
	if !slices.Equal(net.Servers(), base.Servers()) {
		t.Errorf("servers = %v, want %v", net.Servers(), base.Servers())
	}
	for v := 0; v < base.NumNodes(); v++ {
		if net.Capacity(v) != base.Capacity(v) || net.UsedCapacity(v) != from.UsedCapacity(v) {
			t.Errorf("node %d: capacity %v used %v, want %v used %v",
				v, net.Capacity(v), net.UsedCapacity(v), base.Capacity(v), from.UsedCapacity(v))
		}
		for f := 0; f < base.CatalogSize(); f++ {
			if net.RawSetupCost(f, v) != base.RawSetupCost(f, v) {
				t.Errorf("setup cost (%d,%d) = %v, want %v", f, v, net.RawSetupCost(f, v), base.RawSetupCost(f, v))
			}
			if net.IsDeployed(f, v) != from.IsDeployed(f, v) {
				t.Errorf("deployed (%d,%d) = %v, want %v", f, v, net.IsDeployed(f, v), from.IsDeployed(f, v))
			}
		}
	}
}
