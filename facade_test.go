package sftree

import (
	"strings"
	"testing"
)

// TestFacadeTraceWorkflow drives the workload-trace surface of the
// public API end to end.
func TestFacadeTraceWorkflow(t *testing.T) {
	net, err := GenerateNetwork(DefaultGenConfig(30, 2), 61)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTraceConfig()
	cfg.Sessions = 12
	events, err := GenerateTrace(net, cfg, 62)
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeTrace(events)
	if sum.Sessions != 12 || sum.PeakOverlap < 1 {
		t.Fatalf("summary = %+v", sum)
	}
	arrivals := 0
	for _, ev := range events {
		if ev.Kind == TraceArrival {
			arrivals++
		}
	}
	if arrivals != 12 {
		t.Fatalf("arrivals = %d", arrivals)
	}
	stats, err := RunTrace(NewSessionManager(net, Options{}), events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admitted+stats.Rejected != 12 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFacadeDefaultCatalogAndCoords(t *testing.T) {
	cat := DefaultCatalog()
	if len(cat) != 30 {
		t.Fatalf("catalog = %d", len(cat))
	}
	net, err := NewNetworkBuilder(2, cat).
		AddLink(0, 1, 1).
		SetServer(1, 1).
		SetCoords([]Point{{X: 0, Y: 0}, {X: 3, Y: 4}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	coords := net.Coords()
	if len(coords) != 2 || coords[1].X != 3 {
		t.Fatalf("coords = %v", coords)
	}
	// A coordinate per node or none: renderers index coords by node.
	if _, err := NewNetworkBuilder(3, cat).SetCoords([]Point{{X: 0, Y: 0}}).Build(); err == nil {
		t.Error("one coordinate for three nodes accepted")
	}
}

func TestFacadeRenderDOT(t *testing.T) {
	net, names, err := PalmettoNetwork(DefaultGenConfig(45, 2), 63)
	if err != nil {
		t.Fatal(err)
	}
	task, err := GenerateTask(net, 64, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dot := string(RenderDOT(net, res.Embedding, names, "facade"))
	if !strings.HasPrefix(dot, "graph sft {") {
		t.Fatalf("not DOT: %.30s", dot)
	}
	if !strings.Contains(dot, "Columbia") || !strings.Contains(dot, `label="facade"`) {
		t.Error("labels missing from DOT output")
	}
}
