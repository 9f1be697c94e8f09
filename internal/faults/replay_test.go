package faults

import (
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sftree/internal/netgen"
)

// TestReplayerEmptySchedule: a zero-event schedule is legal — it
// accumulates no fault state and materializes the base topology.
func TestReplayerEmptySchedule(t *testing.T) {
	base := testNet(t)
	st, cur := replay(t, base, nil)
	if cur != base || len(st.downLinks) != 0 || len(st.downNodes) != 0 {
		t.Fatal("empty schedule accumulated fault state")
	}
	net, err := st.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph().NumEdges() != base.Graph().NumEdges() || !net.IsDeployed(0, 1) {
		t.Fatal("empty schedule changed the substrate")
	}
}

// TestReplayerDuplicateDownIsIdempotent: downing the same element
// twice must not double-count it — one recovery heals it fully.
func TestReplayerDuplicateDownIsIdempotent(t *testing.T) {
	base := testNet(t)
	st, _ := replay(t, base, []Event{
		{Kind: LinkDown, U: 1, V: 3},
		{Kind: LinkDown, U: 1, V: 3}, // duplicate
		{Kind: NodeDown, Node: 2},
		{Kind: NodeDown, Node: 2}, // duplicate
	})
	if got := len(st.downLinks); got != 1 {
		t.Fatalf("down links after duplicate downs = %d, want 1", got)
	}
	if got := len(st.downNodes); got != 1 {
		t.Fatalf("down nodes after duplicate downs = %d, want 1", got)
	}
	// One up each heals everything.
	for _, ev := range []Event{{Kind: LinkUp, U: 1, V: 3}, {Kind: NodeUp, Node: 2}} {
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.downLinks) != 0 || len(st.downNodes) != 0 {
		t.Fatalf("recovery after duplicate downs left %d links, %d nodes down", len(st.downLinks), len(st.downNodes))
	}
	net, err := st.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph().NumEdges() != base.Graph().NumEdges() {
		t.Fatalf("healed network has %d edges, base %d", net.Graph().NumEdges(), base.Graph().NumEdges())
	}
}

// TestReplayerUpBeforeDown: recovering an element that was never down
// applies cleanly (idempotent no-op) and leaves the substrate whole.
func TestReplayerUpBeforeDown(t *testing.T) {
	base := testNet(t)
	st, cur := replay(t, base, []Event{
		{Kind: LinkUp, U: 0, V: 1},
		{Kind: NodeUp, Node: 1},
		{Kind: LinkDown, U: 1, V: 3},
	})
	if got := len(st.downLinks); got != 1 {
		t.Fatalf("down links = %d, want only the real fault", got)
	}
	// The spurious ups must not have resurrected or duplicated anything.
	if cur.Graph().NumEdges() != base.Graph().NumEdges()-1 {
		t.Fatalf("degraded network has %d edges, want %d", cur.Graph().NumEdges(), base.Graph().NumEdges()-1)
	}
	// An up for a link absent from the base network is still an error.
	if err := st.Apply(Event{Kind: LinkUp, U: 0, V: 3}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("up for a non-existent link: err=%v, want ErrBadEvent", err)
	}
}

// TestScheduleRoundTripThroughReplayer: a generated schedule survives a
// JSON round trip unchanged, and replaying the decoded copy reproduces
// the original's fault state exactly.
func TestScheduleRoundTripThroughReplayer(t *testing.T) {
	net, err := netgen.Generate(netgen.PaperConfig(24, 2), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	events, err := Generate(net, DefaultGenConfig(30), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var loaded []Event
	if err := json.Unmarshal(b, &loaded); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded, events) {
		t.Fatal("events changed in the round trip")
	}
	a, curA := replay(t, net, events)
	b2, curB := replay(t, net, loaded)
	if len(a.downLinks) != len(b2.downLinks) || len(a.downNodes) != len(b2.downNodes) {
		t.Fatalf("replays diverged: %d/%d links, %d/%d nodes down",
			len(a.downLinks), len(b2.downLinks), len(a.downNodes), len(b2.downNodes))
	}
	if curA.Graph().NumEdges() != curB.Graph().NumEdges() {
		t.Fatalf("materialized networks diverged: %d vs %d edges", curA.Graph().NumEdges(), curB.Graph().NumEdges())
	}
}
