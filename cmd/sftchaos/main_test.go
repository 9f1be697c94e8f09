package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunGateSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nodes", "30", "-sessions", "8", "-faults", "6", "-seed", "3"}, &out); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, out.String())
	}
	var rep map[string]any
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("non-JSON report: %v", err)
	}
	if rep["events_applied"].(float64) != 6 {
		t.Fatalf("events_applied = %v", rep["events_applied"])
	}
}

// TestEmitScriptRoundTrips: a script printed by -emit-script and run
// through -script reports byte for byte what the generating run
// reports, crashes included.
func TestEmitScriptRoundTrips(t *testing.T) {
	args := []string{"-nodes", "30", "-sessions", "8", "-ops", "10", "-faults", "5", "-crash", "2", "-seed", "3"}
	var script, direct, replayed bytes.Buffer
	if err := run(append(args, "-emit-script"), &script); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "script.json")
	if err := os.WriteFile(path, script.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &direct); err != nil {
		t.Fatalf("generated script: %v\n%s", err, direct.String())
	}
	if err := run([]string{"-script", path}, &replayed); err != nil {
		t.Fatalf("replaying the emitted script: %v\n%s", err, replayed.String())
	}
	if !bytes.Equal(direct.Bytes(), replayed.Bytes()) {
		t.Fatalf("reports differ:\n%s\n%s", direct.String(), replayed.String())
	}
	if !bytes.Contains(direct.Bytes(), []byte(`"mid_commit": true`)) {
		t.Fatalf("no mid-commit crash fired:\n%s", direct.String())
	}
}

func TestBadScheduleFileFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-script", "/nonexistent.json"}, &out); err == nil {
		t.Fatal("missing script file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"nodes": 30, "ops": [{"op": "release", "mid_commit": true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-script", path}, &out); err == nil {
		t.Fatal("mid-commit crash on a release accepted")
	}
}

// TestSharedInstanceFaults runs configurations whose faults kill an
// instance several sessions share. Each failed the gate while Rebase
// judged a session only after the repairs of lower-ID sessions: a patch
// reinstalled the instance, the next session read as intact without a
// reference to it, and a release undeployed it from under that session.
func TestSharedInstanceFaults(t *testing.T) {
	for _, tc := range []struct{ nodes, seed string }{
		{"25", "6"},
		{"41", "62"},
		{"53", "114"},
	} {
		t.Run(tc.nodes+"/"+tc.seed, func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"-nodes", tc.nodes, "-sessions", "30", "-ops", "60", "-faults", "40", "-seed", tc.seed}
			if err := run(args, &out); err != nil {
				t.Fatalf("gate failed: %v\n%s", err, out.String())
			}
		})
	}
}
