package viz

import (
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/topology"
)

func solveOne(t *testing.T) (*nfv.Network, *nfv.Embedding, []string) {
	t.Helper()
	g, coords, names := topology.Palmetto()
	rng := rand.New(rand.NewSource(3))
	net, err := netgen.Materialize(g, coords, netgen.PaperConfig(45, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(net, task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return net, res.Embedding, names
}

// assertWellFormedXML runs the SVG through the stdlib XML decoder.
func assertWellFormedXML(t *testing.T, blob []byte) {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(blob))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
}

func TestRenderNetworkOnly(t *testing.T) {
	net, _, names := solveOne(t)
	blob, err := RenderSVG(net, nil, Options{Names: names, Title: "PalmettoNet"})
	if err != nil {
		t.Fatal(err)
	}
	assertWellFormedXML(t, blob)
	out := string(blob)
	if !strings.Contains(out, "PalmettoNet") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Columbia") {
		t.Error("city labels missing")
	}
	if strings.Contains(out, "stage 0") {
		t.Error("legend drawn without an embedding")
	}
}

func TestRenderWithEmbedding(t *testing.T) {
	net, emb, names := solveOne(t)
	blob, err := RenderSVG(net, emb, Options{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	assertWellFormedXML(t, blob)
	out := string(blob)
	if !strings.Contains(out, "stage 0") || !strings.Contains(out, "stage 3") {
		t.Error("stage legend incomplete for k=3")
	}
	// Source and destination fills must appear.
	if !strings.Contains(out, "#2ecc71") {
		t.Error("source highlight missing")
	}
	if !strings.Contains(out, "#f39c12") {
		t.Error("destination highlight missing")
	}
	// Instance tags like f7 or +f7 must appear somewhere in labels.
	if !strings.Contains(out, "[f") && !strings.Contains(out, "[+f") {
		t.Error("instance labels missing")
	}
}

func TestRenderNoCoords(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog())
	if _, err := RenderSVG(net, nil, Options{}); !errors.Is(err, ErrNoCoords) {
		t.Errorf("got %v, want ErrNoCoords", err)
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c`); got != `a&lt;b&gt;&amp;&quot;c` {
		t.Errorf("escape = %q", got)
	}
}

func TestRenderDegenerateCoords(t *testing.T) {
	// All nodes at the same point: spans are zero; rendering must not
	// divide by zero or emit NaNs.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	net := nfv.NewNetwork(g, nfv.DefaultCatalog())
	if err := net.SetCoords([]nfv.Point{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}}); err != nil {
		t.Fatal(err)
	}
	blob, err := RenderSVG(net, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "NaN") {
		t.Error("NaN coordinates emitted")
	}
	assertWellFormedXML(t, blob)
}
