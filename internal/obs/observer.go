package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"sftree/internal/core"
)

// SpanRecorder is a core.Observer that keeps every event in arrival
// order, for tests, traces and post-hoc aggregation. Safe for
// concurrent use, though interleaved events from parallel solves make
// the span tree ambiguous — use one recorder per solve for trees.
//
// A nil *SpanRecorder is a valid no-op observer: every method tolerates
// a nil receiver, so TraceBuffer.StartTrace on a nil ring can hand back
// nil and call sites stay unconditional even when teed (Tee keeps
// typed-nil observers, which would otherwise panic on first event).
type SpanRecorder struct {
	mu     sync.Mutex
	events []core.Event
}

// OnEvent implements core.Observer.
func (r *SpanRecorder) OnEvent(e core.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (r *SpanRecorder) Events() []core.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Event(nil), r.events...)
}

// Reset discards everything recorded so far.
func (r *SpanRecorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// Breakdown aggregates one solve's events into a phase timing
// summary: where stage-2 time goes and what the move funnel looked
// like. OverlayNs, SFCSolveNs and SweepNs
// split Stage1Ns from inside the solver: obtaining the MOD overlay,
// the chain search over it, and the candidate last-host sweep.
type Breakdown struct {
	APSPBuildNs   int64   `json:"apsp_build_ns"`
	Stage1Ns      int64   `json:"stage1_ns"`
	OverlayNs     int64   `json:"overlay_ns"`
	SFCSolveNs    int64   `json:"sfc_solve_ns"`
	SweepNs       int64   `json:"sweep_ns"`
	Stage2Ns      int64   `json:"stage2_ns"`
	OPAPasses     int     `json:"opa_passes"`
	MovesProposed int     `json:"moves_proposed"`
	MovesAccepted int     `json:"moves_accepted"`
	MovesRejected int     `json:"moves_rejected"`
	Stage1Cost    float64 `json:"stage1_cost"`
	FinalCost     float64 `json:"final_cost"`
	// Warm reports that the solve's metric lookup was served by the
	// generation-valid cache (core.Event.Warm on the APSP event) — the
	// explicit warm/cold label, rather than the apsp_build_ns==0
	// convention. With several solves folded in, true means at least
	// one was warm.
	Warm bool `json:"warm"`
}

// Breakdown folds the recorded events into per-phase totals. With
// several solves recorded, durations and move counts accumulate and
// the costs reflect the last solve.
func (r *SpanRecorder) Breakdown() Breakdown {
	if r == nil {
		return Breakdown{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b Breakdown
	for _, e := range r.events {
		switch e.Kind {
		case core.EventAPSPBuild:
			b.APSPBuildNs += e.Duration.Nanoseconds()
			if e.Warm {
				b.Warm = true
			}
		case core.EventStage1End:
			b.Stage1Ns += e.Duration.Nanoseconds()
			b.Stage1Cost = e.Cost
		case core.EventOverlayBuilt:
			b.OverlayNs += e.Duration.Nanoseconds()
		case core.EventSFCSolved:
			b.SFCSolveNs += e.Duration.Nanoseconds()
		case core.EventSweepEnd:
			b.SweepNs += e.Duration.Nanoseconds()
		case core.EventStage2End:
			b.Stage2Ns += e.Duration.Nanoseconds()
			b.FinalCost = e.Cost
		case core.EventOPAPassEnd:
			b.OPAPasses++
		case core.EventMoveProposed:
			b.MovesProposed++
		case core.EventMoveAccepted:
			b.MovesAccepted++
		case core.EventMoveRejected:
			b.MovesRejected++
		}
	}
	return b
}

// Span is one node of the in-memory phase tree: a named phase with its
// wall time, numeric attributes and nested children.
type Span struct {
	Name       string             `json:"name"`
	DurationNs int64              `json:"duration_ns"`
	Attrs      map[string]float64 `json:"attrs,omitempty"`
	Children   []*Span            `json:"children,omitempty"`
}

// Spans rebuilds the span tree of the recorded solve: stage spans at
// the top, the overlay / SFC chain search / candidate sweep split under
// stage 1, one span per OPA pass under stage 2, move events as leaf
// spans under their pass.
func (r *SpanRecorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var roots []*Span
	var stage2, pass *Span
	var stage1Parts []*Span // closed sub-phases awaiting their stage1_end
	add := func(s *Span) {
		switch {
		case pass != nil:
			pass.Children = append(pass.Children, s)
		case stage2 != nil:
			stage2.Children = append(stage2.Children, s)
		default:
			roots = append(roots, s)
		}
	}
	for _, e := range r.events {
		switch e.Kind {
		case core.EventAPSPBuild:
			warm := 0.0
			if e.Warm {
				warm = 1
			}
			roots = append(roots, &Span{Name: "apsp_build", DurationNs: e.Duration.Nanoseconds(),
				Attrs: map[string]float64{"warm": warm}})
		case core.EventOverlayBuilt:
			scaffold := 0.0
			if e.Scaffold {
				scaffold = 1
			}
			stage1Parts = append(stage1Parts, &Span{Name: "overlay", DurationNs: e.Duration.Nanoseconds(),
				Attrs: map[string]float64{"scaffold": scaffold}})
		case core.EventSFCSolved:
			// The span keeps the name older trace files carry; it times
			// the column pass over the overlay.
			stage1Parts = append(stage1Parts, &Span{Name: "sfc_dijkstra", DurationNs: e.Duration.Nanoseconds(),
				Attrs: map[string]float64{"rows_relaxed": float64(e.SFCRowsRelaxed), "rows": float64(e.SFCRows)}})
		case core.EventSweepEnd:
			stage1Parts = append(stage1Parts, &Span{Name: "candidate_sweep", DurationNs: e.Duration.Nanoseconds(),
				Attrs: map[string]float64{"candidates": float64(e.Candidates), "general_trees": float64(e.GeneralTrees),
					"bound_skips": float64(e.BoundSkips)}})
		case core.EventStage1End:
			roots = append(roots, &Span{Name: "stage1", DurationNs: e.Duration.Nanoseconds(),
				Attrs:    map[string]float64{"cost": e.Cost, "candidates": float64(e.Candidates)},
				Children: stage1Parts})
			stage1Parts = nil
		case core.EventStage2Start:
			stage2 = &Span{Name: "stage2"}
			roots = append(roots, stage2)
		case core.EventStage2End:
			if stage2 != nil {
				stage2.DurationNs = e.Duration.Nanoseconds()
				stage2.Attrs = map[string]float64{"cost": e.Cost, "moves": float64(e.Moves)}
			}
			stage2, pass = nil, nil
		case core.EventOPAPassStart:
			pass = &Span{Name: fmt.Sprintf("opa_pass_%d", e.Pass)}
			if stage2 != nil {
				stage2.Children = append(stage2.Children, pass)
			} else {
				roots = append(roots, pass)
			}
		case core.EventOPAPassEnd:
			if pass != nil {
				pass.DurationNs = e.Duration.Nanoseconds()
				pass.Attrs = map[string]float64{"moves": float64(e.Moves)}
			}
			pass = nil
		case core.EventMoveProposed, core.EventMoveAccepted, core.EventMoveRejected:
			add(&Span{Name: e.Kind.String(), Attrs: map[string]float64{
				"level": float64(e.Level), "conn": float64(e.Conn),
				"from": float64(e.From), "to": float64(e.To),
				"cost_before": e.CostBefore, "cost_after": e.CostAfter,
			}})
		}
	}
	return roots
}

// lineEvent is the JSON-lines wire form of a solver event. The warm,
// scaffold, general_trees, bound_skips and sfc_rows fields are
// additions over the original schema; they are omitted when empty, so
// old consumers keep parsing new streams and new consumers treat their
// absence as the zero value when reading old streams.
type lineEvent struct {
	Kind       string  `json:"kind"`
	Pass       int     `json:"pass,omitempty"`
	Level      int     `json:"level,omitempty"`
	Conn       int     `json:"conn,omitempty"`
	From       int     `json:"from,omitempty"`
	To         int     `json:"to,omitempty"`
	Group      int     `json:"group,omitempty"`
	CostBefore float64 `json:"cost_before,omitempty"`
	CostAfter  float64 `json:"cost_after,omitempty"`
	Cost       float64 `json:"cost,omitempty"`
	Candidates int     `json:"candidates,omitempty"`
	Moves      int     `json:"moves,omitempty"`
	DurationNs int64   `json:"duration_ns,omitempty"`
	// Warm marks an apsp_build event served from the metric cache.
	Warm bool `json:"warm,omitempty"`
	// Scaffold marks an overlay_built event whose overlay came through
	// the scaffold cache.
	Scaffold bool `json:"scaffold,omitempty"`
	// GeneralTrees counts a sweep_end event's KMB trees that were not
	// trees after the closure expansion and needed Kruskal and pruning.
	GeneralTrees int `json:"general_trees,omitempty"`
	// BoundSkips counts a sweep_end event's candidates left unpriced
	// because the tree lower bound ruled them out.
	BoundSkips int `json:"bound_skips,omitempty"`
	// SFCRowsRelaxed and SFCRows are an sfc_solved event's predecessor
	// rows relaxed, of rows with a finite distance.
	SFCRowsRelaxed int `json:"sfc_rows_relaxed,omitempty"`
	SFCRows        int `json:"sfc_rows,omitempty"`
}

// JSONLObserver streams every solver event as one JSON object per
// line, the standard shape for log shippers. Writes serialize on an
// internal mutex, so one observer may serve concurrent solves.
type JSONLObserver struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLObserver streams events to w.
func NewJSONLObserver(w io.Writer) *JSONLObserver {
	return &JSONLObserver{enc: json.NewEncoder(w)}
}

// OnEvent implements core.Observer.
func (o *JSONLObserver) OnEvent(e core.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	_ = o.enc.Encode(lineEvent{
		Kind: e.Kind.String(), Pass: e.Pass, Level: e.Level,
		Conn: e.Conn, From: e.From, To: e.To, Group: e.Group,
		CostBefore: e.CostBefore, CostAfter: e.CostAfter, Cost: e.Cost,
		Candidates: e.Candidates, Moves: e.Moves,
		DurationNs: e.Duration.Nanoseconds(), Warm: e.Warm,
		Scaffold: e.Scaffold, GeneralTrees: e.GeneralTrees, BoundSkips: e.BoundSkips,
		SFCRowsRelaxed: e.SFCRowsRelaxed, SFCRows: e.SFCRows,
	})
}

// metricsObserver bridges solver events into registry metrics, the
// wiring behind the server's /metrics solver section.
type metricsObserver struct {
	apsp, stage1, stage2         *Histogram
	overlay, sfc, sweep          *Histogram
	proposed, accepted, rejected *Counter
	passes, solves               *Counter
}

// NewMetricsObserver returns a core.Observer that folds phase events
// into the registry: solver_stage1_ms / solver_stage2_ms /
// solver_apsp_ms histograms, the stage-one split (solver_overlay_ms,
// solver_sfc_dijkstra_ms, solver_sweep_ms), the move-funnel counters
// and pass/solve totals. The handles are captured once, so the
// per-event cost is a few atomic adds.
func NewMetricsObserver(reg *Registry) core.Observer {
	return &metricsObserver{
		apsp:     reg.Histogram("solver_apsp_ms", LatencyBuckets),
		stage1:   reg.Histogram("solver_stage1_ms", LatencyBuckets),
		stage2:   reg.Histogram("solver_stage2_ms", LatencyBuckets),
		overlay:  reg.Histogram("solver_overlay_ms", LatencyBuckets),
		sfc:      reg.Histogram("solver_sfc_dijkstra_ms", LatencyBuckets),
		sweep:    reg.Histogram("solver_sweep_ms", LatencyBuckets),
		proposed: reg.Counter("solver_moves_proposed_total"),
		accepted: reg.Counter("solver_moves_accepted_total"),
		rejected: reg.Counter("solver_moves_rejected_total"),
		passes:   reg.Counter("solver_opa_passes_total"),
		solves:   reg.Counter("solver_solves_total"),
	}
}

// OnEvent implements core.Observer.
func (m *metricsObserver) OnEvent(e core.Event) {
	switch e.Kind {
	case core.EventAPSPBuild:
		m.apsp.ObserveDuration(e.Duration)
	case core.EventStage1End:
		m.stage1.ObserveDuration(e.Duration)
	case core.EventOverlayBuilt:
		m.overlay.ObserveDuration(e.Duration)
	case core.EventSFCSolved:
		m.sfc.ObserveDuration(e.Duration)
	case core.EventSweepEnd:
		m.sweep.ObserveDuration(e.Duration)
	case core.EventStage2End:
		m.stage2.ObserveDuration(e.Duration)
		m.solves.Inc()
	case core.EventOPAPassEnd:
		m.passes.Inc()
	case core.EventMoveProposed:
		m.proposed.Inc()
	case core.EventMoveAccepted:
		m.accepted.Inc()
	case core.EventMoveRejected:
		m.rejected.Inc()
	}
}

// tee fans one event out to several observers.
type tee []core.Observer

// OnEvent implements core.Observer.
func (t tee) OnEvent(e core.Event) {
	for _, o := range t {
		o.OnEvent(e)
	}
}

// Tee combines observers into one; nils are dropped. It returns nil
// when nothing remains (keeping the solver's fast path) and the single
// observer unwrapped when only one does.
func Tee(obs ...core.Observer) core.Observer {
	var live tee
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
