package obs

import (
	"fmt"
	"sync"

	"sftree/internal/core"
)

// SpanRecorder is a core.Observer that keeps every event in arrival
// order. Spans rebuilds them into the span tree, the one form solver
// telemetry is read in (TraceBuffer, /debug/traces, sfttrace -traces).
// Safe for concurrent use, though interleaved events from parallel
// solves make the span tree ambiguous — use one recorder per solve.
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

// Reset discards everything recorded so far, keeping the buffer.
func (r *SpanRecorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// recorders recycles SpanRecorders between traced runs.
var recorders sync.Pool

// AcquireRecorder returns an empty recorder, reusing a released one
// and its event buffer when the pool has one. Hand it back with
// Release once nothing reads it any more; TraceBuffer.Record copies
// what it keeps.
func AcquireRecorder() *SpanRecorder {
	if r, _ := recorders.Get().(*SpanRecorder); r != nil {
		return r
	}
	return &SpanRecorder{}
}

// Release empties r and returns it to AcquireRecorder's pool. The
// caller must not use r afterwards. A nil r is a no-op.
func (r *SpanRecorder) Release() {
	if r == nil {
		return
	}
	r.Reset()
	recorders.Put(r)
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
// spans under their pass. Every core.Event field lands on some span:
// as its duration, an attribute, or the pass number in its name.
func (r *SpanRecorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return spansOf(r.events)
}

// spansOf rebuilds the span tree of one solve's events (see Spans).
func spansOf(events []core.Event) []*Span {
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
	for _, e := range events {
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
				Attrs: map[string]float64{"rows_relaxed": float64(e.SFCRowsRelaxed),
					"rows_dominated": float64(e.SFCRowsDominated), "rows": float64(e.SFCRows)}})
		case core.EventSweepEnd:
			stage1Parts = append(stage1Parts, &Span{Name: "candidate_sweep", DurationNs: e.Duration.Nanoseconds(),
				Attrs: map[string]float64{"candidates": float64(e.Candidates), "general_trees": float64(e.GeneralTrees),
					"bound_skips": float64(e.BoundSkips), "tree_bound": e.TreeBound, "repeat_roots": float64(e.RepeatRoots)}})
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
				"from": float64(e.From), "to": float64(e.To), "group": float64(e.Group),
				"cost_before": e.CostBefore, "cost_after": e.CostAfter,
			}})
		}
	}
	return roots
}

// metricsObserver bridges solver events into registry metrics, the
// wiring behind the server's /metrics solver section.
type metricsObserver struct {
	apsp, stage1, stage2             *Histogram
	overlay, sfc, sweep              *Histogram
	proposed, accepted, rejected     *Counter
	passes                           *Counter
	rowsRelaxed, rowsDominated, rows *Counter
	generalTrees                     *Counter
}

// NewMetricsObserver returns a core.Observer that folds phase events
// into the registry: solver_stage1_ms / solver_stage2_ms /
// solver_apsp_ms histograms (solver_stage2_ms's count is the number of
// completed solves), the stage-one split (solver_overlay_ms,
// solver_sfc_dijkstra_ms, solver_sweep_ms), the move-funnel counters,
// the pass total, and what the two stage-one searches read:
// sfc_rows_relaxed_total / sfc_rows_dominated_total / sfc_rows_total,
// the MOD overlay rows the chain search relaxed, skipped as dominated
// and had with a finite distance (relaxed/total is the share of the
// overlay's inter-column arcs read; each overlay's search is counted
// once, by the solve that built it, not again on a scaffold hit), and kmb_general_branch_total, the sweep's KMB
// trees that were not already trees after the closure expansion. The
// handles are captured once, so the per-event cost is a few atomic
// adds.
func NewMetricsObserver(reg *Registry) core.Observer {
	return &metricsObserver{
		apsp:          reg.Histogram("solver_apsp_ms", LatencyBuckets),
		stage1:        reg.Histogram("solver_stage1_ms", LatencyBuckets),
		stage2:        reg.Histogram("solver_stage2_ms", LatencyBuckets),
		overlay:       reg.Histogram("solver_overlay_ms", LatencyBuckets),
		sfc:           reg.Histogram("solver_sfc_dijkstra_ms", LatencyBuckets),
		sweep:         reg.Histogram("solver_sweep_ms", LatencyBuckets),
		proposed:      reg.Counter("solver_moves_proposed_total"),
		accepted:      reg.Counter("solver_moves_accepted_total"),
		rejected:      reg.Counter("solver_moves_rejected_total"),
		passes:        reg.Counter("solver_opa_passes_total"),
		rowsRelaxed:   reg.Counter("sfc_rows_relaxed_total"),
		rowsDominated: reg.Counter("sfc_rows_dominated_total"),
		rows:          reg.Counter("sfc_rows_total"),
		generalTrees:  reg.Counter("kmb_general_branch_total"),
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
		m.rowsRelaxed.Add(int64(e.SFCRowsRelaxed))
		m.rowsDominated.Add(int64(e.SFCRowsDominated))
		m.rows.Add(int64(e.SFCRows))
	case core.EventSweepEnd:
		m.sweep.ObserveDuration(e.Duration)
		m.generalTrees.Add(int64(e.GeneralTrees))
	case core.EventStage2End:
		m.stage2.ObserveDuration(e.Duration)
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
