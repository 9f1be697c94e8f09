package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sftree"
)

// writeInstance creates a small instance file for CLI tests.
func writeInstance(t *testing.T) string {
	t.Helper()
	net, err := sftree.GenerateNetwork(sftree.DefaultGenConfig(15, 2), 21)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sftree.GenerateTask(net, 22, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sftree.InstanceDoc{Network: net, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAlgorithms(t *testing.T) {
	path := writeInstance(t)
	for _, algo := range []string{"msa", "msa1", "sca", "rsa", "onenode", "bks"} {
		t.Run(algo, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-in", path, "-algo", algo}, &buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "cost: total") {
				t.Errorf("missing cost line:\n%s", out)
			}
			if !strings.Contains(out, "replay: delivered 3/3") {
				t.Errorf("missing replay verification:\n%s", out)
			}
		})
	}
}

func TestRunTMFlag(t *testing.T) {
	path := writeInstance(t)
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-tm"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunSVGOutput(t *testing.T) {
	path := writeInstance(t)
	svg := filepath.Join(t.TempDir(), "out.svg")
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-svg", svg}, &buf); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), "<svg") {
		t.Errorf("svg output malformed: %s", blob[:20])
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, nil); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.json"}, nil); err == nil {
		t.Error("missing file accepted")
	}
	path := writeInstance(t)
	if err := run([]string{"-in", path, "-algo", "bogus"}, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
	garbage := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(garbage, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", garbage}, nil); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func TestRunILPOnTinyInstance(t *testing.T) {
	// Build a deliberately tiny instance so the exact path finishes.
	catalog := []sftree.VNF{{ID: 0, Name: "f0", Demand: 1}}
	net, err := sftree.NewNetworkBuilder(4, catalog).
		AddLink(0, 1, 1).AddLink(1, 2, 1).AddLink(2, 3, 1).
		SetServer(1, 1).SetServer(2, 1).
		SetSetupCost(0, 1, 1).SetSetupCost(0, 2, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	task := sftree.Task{Source: 0, Destinations: []int{3}, Chain: sftree.SFC{0}}
	blob, err := json.Marshal(sftree.InstanceDoc{Network: net, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "ilp"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "proven=true") {
		t.Errorf("tiny ILP not proven optimal:\n%s", buf.String())
	}
}
