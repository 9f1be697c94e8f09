package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sftree"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("2x3:2, 8x5 ,4x1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []sig{{2, 3, 2}, {8, 5, 1}, {4, 1, 0.5}}
	if !reflect.DeepEqual(mix, want) {
		t.Errorf("mix = %+v, want %+v", mix, want)
	}
	for _, bad := range []string{"", "2y3", "0x3", "2x3:-1", "ax3",
		"2x3:NaN", "2x3:Inf", "2x3:+Inf", "2x3:-Inf", "2x3:1e308,4x4:1e308", "6x4!", "6x4!:3"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestMakePlanDeterministic(t *testing.T) {
	net, err := sftree.GenerateNetwork(sftree.DefaultGenConfig(30, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	mix := []sig{{2, 2, 1}, {4, 3, 1}}
	plan1, err := makePlan(net, rand.New(rand.NewSource(42)), 50, 200*time.Millisecond, time.Second, mix, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := makePlan(net, rand.New(rand.NewSource(42)), 50, 200*time.Millisecond, time.Second, mix, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan1) == 0 {
		t.Fatal("empty plan")
	}
	if !reflect.DeepEqual(plan1, plan2) {
		t.Error("same seed produced different arrival plans")
	}
	// Sanity: ~rate*total arrivals, warmup flags set, times ordered.
	if n := len(plan1); n < 30 || n > 90 {
		t.Errorf("plan has %d arrivals for ~60 expected", n)
	}
	warm := 0
	for i, a := range plan1 {
		if i > 0 && a.at < plan1[i-1].at {
			t.Fatal("arrival times not monotone")
		}
		if a.warm {
			warm++
		}
		if a.warm != (a.at < 200*time.Millisecond) {
			t.Errorf("arrival %d warm flag wrong: at=%v", i, a.at)
		}
	}
	if warm == 0 {
		t.Error("no warmup arrivals flagged")
	}
}

func TestExactQuantiles(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.P50 != 3 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.P999 != 5 {
		t.Errorf("p999 = %v, want the max of a small sample", s.P999)
	}
	if z := summarize(nil); z != (latencySummary{}) {
		t.Errorf("empty summary = %+v", z)
	}
}

// TestLoadRunEndToEnd runs the full harness against its in-process
// (queued) server with the -check gate on: a short fixed-seed window
// must admit sessions, drop nothing, surface the metric-cache hit rate
// and the wait/solve split, emit the artifact, and capture a
// request-ID trace.
func TestLoadRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("load window too long for -short")
	}
	outPath := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	args := []string{
		"-nodes", "30", "-seed", "5",
		"-rates", "25", "-duration", "1200ms", "-warmup", "300ms",
		"-hold", "500ms",
		"-out", outPath, "-check",
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "load gate OK") {
		t.Errorf("gate verdict missing:\n%s", buf.String())
	}

	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc loadDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "sftload/v1" || len(doc.Points) != 1 {
		t.Fatalf("artifact = %+v", doc)
	}
	pt := doc.Points[0]
	if pt.Admitted == 0 || pt.Dropped != 0 {
		t.Errorf("point = %+v, want admissions and zero drops", pt)
	}
	if pt.Latency.P50 <= 0 || pt.Latency.P999 < pt.Latency.P50 {
		t.Errorf("latency summary malformed: %+v", pt.Latency)
	}
	if pt.Wait == nil || pt.Solve == nil || pt.Solve.P50 <= 0 {
		t.Errorf("point lacks the queue's wait/solve split: wait %+v solve %+v", pt.Wait, pt.Solve)
	}
	if doc.Metrics["metric_cache_hit_rate"] <= 0 {
		t.Errorf("metric_cache_hit_rate = %v in artifact", doc.Metrics["metric_cache_hit_rate"])
	}
	if doc.Trace == nil || doc.Trace.RequestID == "" {
		t.Error("artifact lacks the request-ID trace sample")
	}
}

func TestLoadRunBadFlags(t *testing.T) {
	if err := run([]string{"-rates", "0"}, &bytes.Buffer{}); err == nil {
		t.Error("zero rate accepted")
	}
	if err := run([]string{"-mix", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("bogus mix accepted")
	}
	if err := run([]string{"-nope"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
	// Refused at parse time: a plan step that rounds to zero or
	// converts a NaN never advances, and an empty window divides
	// admissions per second into NaN or negative rates.
	for _, args := range [][]string{
		{"-rates", "Inf"}, {"-rates", "NaN"}, {"-rates", "1e12"},
		{"-duration", "0"}, {"-duration", "-1s"},
		{"-warmup", "-1s"}, {"-hold", "-1s"}, {"-drain", "-1s"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
