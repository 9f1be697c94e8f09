package sftree

import (
	"testing"
	"time"
)

// TestScale500Nodes exercises the full pipeline well beyond the
// paper's largest network (|V|=250): a 500-node ER instance with 50
// destinations and a 10-function chain must solve, validate, and
// replay within a sane wall-time budget.
func TestScale500Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test is slow")
	}
	start := time.Now()
	net, err := GenerateNetwork(DefaultGenConfig(500, 2), 71)
	if err != nil {
		t.Fatal(err)
	}
	task, err := GenerateTask(net, 72, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(res.Embedding); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	rep, err := Replay(net, res.Embedding)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Delivered != 50 {
		t.Fatalf("delivered %d/50", rep.Delivered)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("500-node pipeline took %v; expected well under two minutes", elapsed)
	}
}
