package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
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
	res, err := core.Solve(net, task, core.Options{Observer: rec})
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

// TestBreakdownAndSpans: a solve's phase breakdown is read off its span
// tree: stage wall times and costs, one span per OPA pass, the move
// funnel, and the warm flag of the metric lookup.
func TestBreakdownAndSpans(t *testing.T) {
	net, task := obsInstance(t)
	net.SetMetricSupplier(nil) // drop the cached closure: the first solve builds it, the second reuses it
	for i, wantWarm := range []float64{0, 1} {
		rec := &SpanRecorder{}
		// The paper's rule proposes no move on this instance; the
		// aggressive one does, so the funnel below is not empty.
		res, err := core.Solve(net, task, core.Options{Observer: rec, AggressiveOPA: true})
		if err != nil {
			t.Fatal(err)
		}
		spans := rec.Spans()
		var roots []string
		for _, s := range spans {
			roots = append(roots, s.Name)
		}
		if !reflect.DeepEqual(roots, []string{"apsp_build", "stage1", "stage2"}) {
			t.Fatalf("solve %d: root spans %v", i, roots)
		}
		apsp, stage1, stage2 := spans[0], spans[1], spans[2]
		if apsp.Attrs["warm"] != wantWarm || (wantWarm == 0) != (apsp.DurationNs > 0) {
			t.Errorf("solve %d: apsp_build span %d ns warm %v, want warm %v", i, apsp.DurationNs, apsp.Attrs["warm"], wantWarm)
		}
		if stage1.DurationNs <= 0 || stage1.Attrs["cost"] != res.Stage1Cost || stage1.Attrs["candidates"] != float64(res.CandidatesTried) {
			t.Errorf("solve %d: stage1 span %d ns %v, result cost %v over %d candidates", i, stage1.DurationNs, stage1.Attrs, res.Stage1Cost, res.CandidatesTried)
		}
		if stage2.DurationNs <= 0 || stage2.Attrs["cost"] != res.FinalCost || stage2.Attrs["moves"] != float64(res.MovesAccepted) {
			t.Errorf("solve %d: stage2 span %d ns %v, result cost %v after %d moves", i, stage2.DurationNs, stage2.Attrs, res.FinalCost, res.MovesAccepted)
		}
		var passMoves float64
		for j, p := range stage2.Children {
			if p.Name != fmt.Sprintf("opa_pass_%d", j+1) {
				t.Errorf("solve %d: stage2 child %d is %q", i, j, p.Name)
			}
			passMoves += p.Attrs["moves"]
		}
		if len(stage2.Children) == 0 || passMoves != float64(res.MovesAccepted) {
			t.Errorf("solve %d: %d passes accepted %v moves, result %d", i, len(stage2.Children), passMoves, res.MovesAccepted)
		}
		proposed, accepted, rejected := named(spans, "move_proposed"), named(spans, "move_accepted"), named(spans, "move_rejected")
		if len(proposed) == 0 || len(proposed) != len(accepted)+len(rejected) || len(accepted) != res.MovesAccepted {
			t.Errorf("solve %d: move funnel %d proposed, %d accepted, %d rejected; result %d accepted",
				i, len(proposed), len(accepted), len(rejected), res.MovesAccepted)
		}
		for _, m := range accepted {
			if m.Attrs["cost_after"] >= m.Attrs["cost_before"] {
				t.Errorf("solve %d: accepted move did not improve: %v", i, m.Attrs)
			}
		}
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
		wantScaffold := 0.0
		if scaffolds != nil {
			wantScaffold = 1
		}
		rec := &SpanRecorder{}
		reg := NewRegistry()
		opts := core.Options{Observer: Tee(rec, NewMetricsObserver(reg)), Scaffolds: scaffolds}
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

		var names []string
		for _, s := range rec.Spans() {
			if s.Name == "stage1" {
				var split int64
				for _, c := range s.Children {
					names = append(names, c.Name)
					split += c.DurationNs
					if c.Name != "overlay" && c.DurationNs <= 0 {
						t.Errorf("%s span has no duration", c.Name)
					}
					if c.Name == "overlay" && c.Attrs["scaffold"] != wantScaffold {
						t.Errorf("overlay span scaffold = %v with cache %v", c.Attrs["scaffold"], scaffolds != nil)
					}
					_, dominated := c.Attrs["rows_dominated"]
					if c.Name == "sfc_dijkstra" && (!dominated || c.Attrs["rows_relaxed"] <= 0 ||
						c.Attrs["rows"] < c.Attrs["rows_relaxed"]+c.Attrs["rows_dominated"]) {
						t.Errorf("sfc_dijkstra span attrs = %v", c.Attrs)
					}
					if _, repeats := c.Attrs["repeat_roots"]; c.Name == "candidate_sweep" && !repeats {
						t.Errorf("candidate_sweep span attrs = %v", c.Attrs)
					}
				}
				if split > s.DurationNs {
					t.Errorf("stage1 children total %d ns of the stage's %d ns", split, s.DurationNs)
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
	}
}

// eventHomes says where spansOf puts each field of each event kind, as
// "span.key": key is an attribute, duration_ns, or pass (the N of an
// opa_pass_N span's name). Two fields are copies the tree holds once: a
// stage2_start carries the stage-one cost the stage1 span holds, and a
// move event the number of the pass span it sits under.
var eventHomes = map[core.EventKind]map[string]string{
	core.EventAPSPBuild:    {"Duration": "apsp_build.duration_ns", "Warm": "apsp_build.warm"},
	core.EventStage1Start:  {},
	core.EventOverlayBuilt: {"Duration": "overlay.duration_ns", "Scaffold": "overlay.scaffold"},
	core.EventSFCSolved: {"Duration": "sfc_dijkstra.duration_ns", "SFCRowsRelaxed": "sfc_dijkstra.rows_relaxed",
		"SFCRowsDominated": "sfc_dijkstra.rows_dominated", "SFCRows": "sfc_dijkstra.rows"},
	core.EventSweepEnd: {"Duration": "candidate_sweep.duration_ns", "Candidates": "candidate_sweep.candidates",
		"GeneralTrees": "candidate_sweep.general_trees", "BoundSkips": "candidate_sweep.bound_skips",
		"RepeatRoots": "candidate_sweep.repeat_roots"},
	core.EventStage1End:    {"Duration": "stage1.duration_ns", "Cost": "stage1.cost", "Candidates": "stage1.candidates"},
	core.EventStage2Start:  {"Cost": "stage1.cost"},
	core.EventOPAPassStart: {"Pass": "opa_pass.pass"},
	core.EventMoveProposed: moveHomes("move_proposed"),
	core.EventMoveAccepted: moveHomes("move_accepted"),
	core.EventMoveRejected: moveHomes("move_rejected"),
	core.EventOPAPassEnd:   {"Pass": "opa_pass.pass", "Duration": "opa_pass.duration_ns", "Moves": "opa_pass.moves"},
	core.EventStage2End:    {"Duration": "stage2.duration_ns", "Cost": "stage2.cost", "Moves": "stage2.moves"},
}

// moveHomes is eventHomes' entry for the move kind whose spans are
// called name.
func moveHomes(name string) map[string]string {
	homes := map[string]string{"Pass": "opa_pass.pass"}
	for field, key := range map[string]string{"Level": "level", "Conn": "conn", "From": "from", "To": "to",
		"Group": "group", "CostBefore": "cost_before", "CostAfter": "cost_after"} {
		homes[field] = name + "." + key
	}
	return homes
}

// walk calls f on every span of the tree, parents before children.
func walk(spans []*Span, f func(*Span)) {
	for _, s := range spans {
		f(s)
		walk(s.Children, f)
	}
}

// named returns the tree's spans called name, in tree order.
func named(spans []*Span, name string) []*Span {
	var out []*Span
	walk(spans, func(s *Span) {
		if s.Name == name {
			out = append(out, s)
		}
	})
	return out
}

// carries reports whether some span of the tree holds want at home.
func carries(spans []*Span, home string, want float64) bool {
	name, key, _ := strings.Cut(home, ".")
	found := false
	walk(spans, func(s *Span) {
		pass, isPass := strings.CutPrefix(s.Name, "opa_pass_")
		if s.Name != name && !(name == "opa_pass" && isPass) {
			return
		}
		got := s.Attrs[key]
		switch key {
		case "duration_ns":
			got = float64(s.DurationNs)
		case "pass":
			n, _ := strconv.Atoi(pass)
			got = float64(n)
		}
		found = found || got == want
	})
	return found
}

// checkCarried fails for every non-zero field of events that has no
// home for its kind, or whose value the span tree built from events
// does not hold there.
func checkCarried(t *testing.T, label string, events []core.Event) {
	t.Helper()
	spans := spansOf(events)
	for i, e := range events {
		homes, ok := eventHomes[e.Kind]
		if !ok {
			t.Errorf("%s: event %d: kind %v has no entry", label, i, e.Kind)
			continue
		}
		v := reflect.ValueOf(e)
		for j := 0; j < v.NumField(); j++ {
			field, f := v.Type().Field(j).Name, v.Field(j)
			if field == "Kind" || f.IsZero() {
				continue
			}
			home, ok := homes[field]
			if !ok {
				t.Errorf("%s: event %d (%v): %s = %v has no span home", label, i, e.Kind, field, f)
				continue
			}
			want := 1.0 // a set flag
			switch f.Kind() {
			case reflect.Float64:
				want = f.Float()
			case reflect.Int, reflect.Int64: // counts, and time.Duration in ns
				want = float64(f.Int())
			}
			if !carries(spans, home, want) {
				t.Errorf("%s: event %d (%v): %s = %v missing from span %s", label, i, e.Kind, field, f, home)
			}
		}
	}
}

// everyField is one solve's events two OPA passes deep, each field with
// a home set to a value no other field shares (flags to true), except
// the copies the solver makes: stage2_start repeats stage one's cost,
// and a pass or move event carries its pass's number.
func everyField() []core.Event {
	kinds := []core.EventKind{core.EventAPSPBuild, core.EventStage1Start, core.EventOverlayBuilt,
		core.EventSFCSolved, core.EventSweepEnd, core.EventStage1End, core.EventStage2Start,
		core.EventOPAPassStart, core.EventMoveProposed, core.EventMoveAccepted, core.EventOPAPassEnd,
		core.EventOPAPassStart, core.EventMoveProposed, core.EventMoveRejected, core.EventOPAPassEnd,
		core.EventStage2End}
	var events []core.Event
	next, pass, stage1Cost := int64(100), 0, 0.0
	for _, k := range kinds {
		e := core.Event{Kind: k}
		v := reflect.ValueOf(&e).Elem()
		fields := make([]string, 0, len(eventHomes[k]))
		for field := range eventHomes[k] {
			fields = append(fields, field)
		}
		sort.Strings(fields)
		for _, field := range fields {
			next++
			switch f := v.FieldByName(field); f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Float64:
				f.SetFloat(float64(next) + 0.25)
			default:
				f.SetInt(next)
			}
		}
		switch k {
		case core.EventStage1End:
			stage1Cost = e.Cost
		case core.EventStage2Start:
			e.Cost = stage1Cost
		case core.EventOPAPassStart:
			pass++
		}
		if e.Pass != 0 {
			e.Pass = pass
		}
		events = append(events, e)
	}
	return events
}

// TestSpansCarryEveryEventField: the span tree is the one derived form
// of the solver's events, so every core.Event field must reach it.
// Every kind and every field needs an entry in eventHomes, and every
// non-zero field of a synthetic stream that sets them all, and of real
// solves, must be found at its home.
func TestSpansCarryEveryEventField(t *testing.T) {
	homed := map[string]bool{}
	for k := core.EventAPSPBuild; k.String() != "unknown"; k++ {
		homes, ok := eventHomes[k]
		if !ok {
			t.Errorf("event kind %v has no entry in eventHomes", k)
		}
		for field := range homes {
			homed[field] = true
		}
	}
	typ := reflect.TypeOf(core.Event{})
	for i := 0; i < typ.NumField(); i++ {
		if field := typ.Field(i).Name; field != "Kind" && !homed[field] {
			t.Errorf("core.Event.%s has no span home", field)
		}
	}
	for field := range homed {
		if _, ok := typ.FieldByName(field); !ok {
			t.Errorf("eventHomes names %s, which core.Event lacks", field)
		}
	}

	checkCarried(t, "every field", everyField())
	net, task := obsInstance(t)
	for label, opts := range map[string]core.Options{
		"aggressive solve": {AggressiveOPA: true},
		"scaffolded solve": {Scaffolds: mod.NewCache()},
	} {
		rec := &SpanRecorder{}
		opts.Observer = rec
		if _, err := core.Solve(net, task, opts); err != nil {
			t.Fatal(err)
		}
		checkCarried(t, label, rec.Events())
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
