package trace_test

import (
	"math/rand"
	"testing"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/trace"
)

func TestRunTraceEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net, err := netgen.Generate(netgen.PaperConfig(40, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Sessions = 40
	events, err := trace.Generate(net, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := dynamic.NewManager(net, core.Options{})
	stats, err := trace.RunTrace(m, events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admitted+stats.Rejected != 40 {
		t.Fatalf("admitted %d + rejected %d != 40", stats.Admitted, stats.Rejected)
	}
	if stats.Admitted == 0 {
		t.Fatal("nothing admitted on a 40-node paper-config network")
	}
	// Every departure processed: no sessions may remain live.
	if m.Active() != 0 {
		t.Fatalf("%d sessions leaked", m.Active())
	}
	if m.LiveInstances() != 0 {
		t.Fatalf("%d instances leaked", m.LiveInstances())
	}
	if stats.PeakActive < 1 || stats.CostPerSession.N() != stats.Admitted {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
}

func TestTraceLeavesBaseDeploymentsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the pre-deployed set.
	type inst struct{ f, v int }
	base := map[inst]bool{}
	for f := 0; f < net.CatalogSize(); f++ {
		for v := 0; v < net.NumNodes(); v++ {
			if net.IsDeployed(f, v) {
				base[inst{f, v}] = true
			}
		}
	}
	cfg := trace.DefaultConfig()
	cfg.Sessions = 25
	events, err := trace.Generate(net, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.RunTrace(dynamic.NewManager(net, core.Options{}), events); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < net.CatalogSize(); f++ {
		for v := 0; v < net.NumNodes(); v++ {
			if net.IsDeployed(f, v) != base[inst{f, v}] {
				t.Fatalf("deployment state diverged at vnf %d node %d", f, v)
			}
		}
	}
}
