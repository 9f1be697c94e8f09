package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/mod"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// obsInstance builds the fixed-seed mid-size instance every observer
// test solves, large enough that stage two accepts moves.
func obsInstance(t testing.TB) (*nfv.Network, nfv.Task) {
	t.Helper()
	net, err := netgen.Generate(netgen.PaperConfig(60, 2), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rand.New(rand.NewSource(12)), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return net, task
}

// TestEventOrdering asserts the structural invariants of one observed
// fixed-seed solve: phases open before they close, passes nest inside
// stage two, move events nest inside passes, and accepted moves carry
// strictly improving global costs.
func TestEventOrdering(t *testing.T) {
	net, task := obsInstance(t)
	rec := &SpanRecorder{}
	res, err := core.Solve(net, task, core.Options{Observer: rec, MaxOPAPasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}

	seen := make(map[core.EventKind]int)
	var inStage1, inStage2, inPass bool
	accepted := 0
	for i, e := range events {
		seen[e.Kind]++
		switch e.Kind {
		case core.EventAPSPBuild:
			if i != 0 {
				t.Errorf("event %d: apsp_build not first", i)
			}
		case core.EventStage1Start:
			inStage1 = true
		case core.EventStage1End:
			if !inStage1 {
				t.Errorf("event %d: stage1_end before stage1_start", i)
			}
			inStage1 = false
			if e.Candidates <= 0 || e.Cost <= 0 {
				t.Errorf("stage1_end missing stats: %+v", e)
			}
		case core.EventStage2Start:
			if inStage1 {
				t.Errorf("event %d: stage2_start inside stage 1", i)
			}
			inStage2 = true
		case core.EventStage2End:
			if !inStage2 || inPass {
				t.Errorf("event %d: stage2_end out of order", i)
			}
			inStage2 = false
			if e.Moves != res.MovesAccepted {
				t.Errorf("stage2_end moves = %d, want %d", e.Moves, res.MovesAccepted)
			}
		case core.EventOPAPassStart:
			if !inStage2 || inPass {
				t.Errorf("event %d: pass_start out of order", i)
			}
			inPass = true
		case core.EventOPAPassEnd:
			if !inPass {
				t.Errorf("event %d: pass_end without pass_start", i)
			}
			inPass = false
		case core.EventMoveProposed, core.EventMoveAccepted, core.EventMoveRejected:
			if !inPass {
				t.Errorf("event %d: move event outside a pass", i)
			}
			if e.Kind == core.EventMoveAccepted {
				accepted++
				if e.CostAfter >= e.CostBefore {
					t.Errorf("accepted move did not improve: %+v", e)
				}
			}
		}
	}
	if inStage1 || inStage2 || inPass {
		t.Error("unbalanced phase events")
	}
	for _, k := range []core.EventKind{core.EventAPSPBuild, core.EventStage1Start,
		core.EventStage1End, core.EventStage2Start, core.EventStage2End,
		core.EventOPAPassStart, core.EventOPAPassEnd} {
		if seen[k] == 0 {
			t.Errorf("no %v event", k)
		}
	}
	if accepted != res.MovesAccepted {
		t.Errorf("accepted events = %d, result moves = %d", accepted, res.MovesAccepted)
	}
	// Proposals are a superset of outcomes.
	if seen[core.EventMoveProposed] != seen[core.EventMoveAccepted]+seen[core.EventMoveRejected] {
		t.Errorf("move funnel mismatch: %d proposed, %d accepted, %d rejected",
			seen[core.EventMoveProposed], seen[core.EventMoveAccepted], seen[core.EventMoveRejected])
	}
}

func TestBreakdownAndSpans(t *testing.T) {
	net, task := obsInstance(t)
	rec := &SpanRecorder{}
	res, err := core.Solve(net, task, core.Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	b := rec.Breakdown()
	if b.Stage1Ns <= 0 || b.Stage2Ns <= 0 || b.OPAPasses < 1 {
		t.Errorf("breakdown = %+v", b)
	}
	if b.Stage1Cost != res.Stage1Cost || b.FinalCost != res.FinalCost {
		t.Errorf("breakdown costs %v/%v, result %v/%v", b.Stage1Cost, b.FinalCost, res.Stage1Cost, res.FinalCost)
	}
	if b.MovesAccepted != res.MovesAccepted {
		t.Errorf("breakdown moves = %d, want %d", b.MovesAccepted, res.MovesAccepted)
	}

	spans := rec.Spans()
	var stage2 *Span
	for _, s := range spans {
		if s.Name == "stage2" {
			stage2 = s
		}
	}
	if stage2 == nil {
		t.Fatalf("no stage2 span in %d roots", len(spans))
	}
	if len(stage2.Children) == 0 || !strings.HasPrefix(stage2.Children[0].Name, "opa_pass_") {
		t.Errorf("stage2 children = %+v", stage2.Children)
	}
	if stage2.DurationNs <= 0 {
		t.Errorf("stage2 span has no duration")
	}
}

// TestStageOneSplit checks the stage-one sub-phase events of one
// observed solve: overlay, SFC chain search and candidate sweep fire once
// each, in that order, inside stage one; their durations fit inside
// the stage's; the overlay event says whether it came through the
// scaffold cache; and every consumer carries the split.
func TestStageOneSplit(t *testing.T) {
	net, task := obsInstance(t)
	for _, scaffolds := range []*mod.Cache{nil, mod.NewCache()} {
		rec := &SpanRecorder{}
		reg := NewRegistry()
		var buf bytes.Buffer
		opts := core.Options{Observer: Tee(rec, NewMetricsObserver(reg), NewJSONLObserver(&buf)), Scaffolds: scaffolds}
		res, err := core.Solve(net, task, opts)
		if err != nil {
			t.Fatal(err)
		}
		var order []core.EventKind
		var split time.Duration
		inStage1 := false
		for _, e := range rec.Events() {
			switch e.Kind {
			case core.EventStage1Start:
				inStage1 = true
			case core.EventStage1End:
				inStage1 = false
				if split <= 0 || split > e.Duration {
					t.Errorf("sub-phases total %v, stage one %v", split, e.Duration)
				}
			case core.EventOverlayBuilt, core.EventSFCSolved, core.EventSweepEnd:
				if !inStage1 {
					t.Errorf("%v outside stage one", e.Kind)
				}
				order = append(order, e.Kind)
				split += e.Duration
				if e.Kind == core.EventOverlayBuilt && e.Scaffold != (scaffolds != nil) {
					t.Errorf("overlay_built scaffold = %v with cache %v", e.Scaffold, scaffolds != nil)
				}
				if e.Kind == core.EventSFCSolved && (e.SFCRowsRelaxed <= 0 || e.SFCRowsRelaxed+e.SFCRowsDominated > e.SFCRows) {
					t.Errorf("sfc_solved relaxed %d and skipped %d of %d predecessor rows", e.SFCRowsRelaxed, e.SFCRowsDominated, e.SFCRows)
				}
				if e.Kind == core.EventSweepEnd && e.Candidates != res.CandidatesTried {
					t.Errorf("sweep_end candidates = %d, result %d", e.Candidates, res.CandidatesTried)
				}
			}
		}
		want := []core.EventKind{core.EventOverlayBuilt, core.EventSFCSolved, core.EventSweepEnd}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("sub-phase events %v, want %v", order, want)
		}

		b := rec.Breakdown()
		if b.SFCSolveNs <= 0 || b.SweepNs <= 0 || b.OverlayNs+b.SFCSolveNs+b.SweepNs > b.Stage1Ns {
			t.Errorf("breakdown split %d+%d+%d ns of stage one %d ns", b.OverlayNs, b.SFCSolveNs, b.SweepNs, b.Stage1Ns)
		}
		var names []string
		for _, s := range rec.Spans() {
			if s.Name == "stage1" {
				for _, c := range s.Children {
					names = append(names, c.Name)
					_, dominated := c.Attrs["rows_dominated"]
					if c.Name == "sfc_dijkstra" && (!dominated || c.Attrs["rows_relaxed"] <= 0 ||
						c.Attrs["rows"] < c.Attrs["rows_relaxed"]+c.Attrs["rows_dominated"]) {
						t.Errorf("sfc_dijkstra span attrs = %v", c.Attrs)
					}
					if _, repeats := c.Attrs["repeat_roots"]; c.Name == "candidate_sweep" && !repeats {
						t.Errorf("candidate_sweep span attrs = %v", c.Attrs)
					}
				}
			}
		}
		if !reflect.DeepEqual(names, []string{"overlay", "sfc_dijkstra", "candidate_sweep"}) {
			t.Errorf("stage1 span children = %v", names)
		}
		for _, h := range []string{"solver_overlay_ms", "solver_sfc_dijkstra_ms", "solver_sweep_ms"} {
			if got := reg.Histogram(h, nil).Count(); got != 1 {
				t.Errorf("%s count = %d, want 1", h, got)
			}
		}
		if got := strings.Contains(buf.String(), `"kind":"overlay_built"`) &&
			strings.Contains(buf.String(), `"scaffold":true`) == (scaffolds != nil); !got {
			t.Errorf("JSONL stream lacks the overlay_built line or its scaffold flag:\n%s", buf.String())
		}
		if !strings.Contains(buf.String(), `"sfc_rows_relaxed":`) || !strings.Contains(buf.String(), `"sfc_rows":`) {
			t.Errorf("JSONL stream lacks the sfc_solved row counts:\n%s", buf.String())
		}
	}
}

func TestJSONLObserver(t *testing.T) {
	net, task := obsInstance(t)
	var buf bytes.Buffer
	if _, err := core.Solve(net, task, core.Options{Observer: NewJSONLObserver(&buf)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 5 {
		t.Fatalf("only %d lines", len(lines))
	}
	kinds := make(map[string]bool)
	for i, ln := range lines {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v (%q)", i, err, ln)
		}
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"apsp_build", "stage1_end", "stage2_end"} {
		if !kinds[want] {
			t.Errorf("no %q line in stream", want)
		}
	}
}

func TestTee(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil")
	}
	a := &SpanRecorder{}
	if got := Tee(nil, a); got != core.Observer(a) {
		t.Error("single observer should be returned unwrapped")
	}
	b := &SpanRecorder{}
	Tee(a, b).OnEvent(core.Event{Kind: core.EventStage1Start})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Error("tee did not fan out")
	}
}

// TestConcurrentSolvesIntoSharedRegistry hammers one registry-backed
// observer from parallel solves; meaningful under -race (tools.sh).
func TestConcurrentSolvesIntoSharedRegistry(t *testing.T) {
	net, task := obsInstance(t)
	net.Metric() // warm the shared APSP cache up front
	reg := NewRegistry()
	observer := Tee(NewMetricsObserver(reg), &SpanRecorder{})
	var wg sync.WaitGroup
	const workers, solves = 6, 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solves; i++ {
				if _, err := core.Solve(net, task, core.Options{Observer: observer}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent readers
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := reg.Counter("solver_solves_total").Value(); got != workers*solves {
		t.Errorf("solver_solves_total = %d, want %d", got, workers*solves)
	}
	if got := reg.Histogram("solver_stage1_ms", nil).Count(); got != workers*solves {
		t.Errorf("stage1 histogram count = %d, want %d", got, workers*solves)
	}
}
