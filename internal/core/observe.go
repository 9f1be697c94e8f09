package core

import "time"

// This file defines the solver's observability hook. An Observer set
// on Options receives structured phase events from the two-stage
// algorithm: stage-one tree construction and its split into overlay,
// SFC chain search and candidate sweep, per-round OPA move
// proposals/acceptances/rejections with cost deltas, and the APSP
// (metric closure) build time. A nil Observer costs a single pointer
// check per emission site, so the hot path is unaffected when tracing
// is off; internal/obs provides ready-made consumers (the span
// recorder, whose span tree is the one wire form of these events, and
// the metrics-registry bridge).

// EventKind classifies solver-phase events.
type EventKind int

// Event kinds. A fully observed Solve emits them in this order, with
// the three stage-one sub-phase kinds at the end of the list falling
// between EventStage1Start and EventStage1End.
const (
	// EventAPSPBuild reports the time to obtain the metric closure
	// (zero-ish when the network's APSP cache is already warm).
	EventAPSPBuild EventKind = iota + 1
	// EventStage1Start opens stage one (MSA, Algorithm 2).
	EventStage1Start
	// EventStage1End closes stage one; carries Cost, Candidates and
	// Duration.
	EventStage1End
	// EventStage2Start opens stage two (OPA, Algorithm 3); carries the
	// stage-one Cost.
	EventStage2Start
	// EventStage2End closes stage two; carries the final Cost, total
	// accepted Moves, the executed Pass count and Duration.
	EventStage2End
	// EventOPAPassStart opens one stage-two sweep (levels k..1).
	EventOPAPassStart
	// EventOPAPassEnd closes a sweep; carries its accepted Moves and
	// Duration.
	EventOPAPassEnd
	// EventMoveProposed reports a candidate re-homing move that passed
	// the local rule: level, connection node, current and candidate
	// hosts, group size and the global cost before the trial.
	EventMoveProposed
	// EventMoveAccepted reports a committed move; CostAfter < CostBefore.
	EventMoveAccepted
	// EventMoveRejected reports a reverted move; CostAfter is the trial
	// cost the global gate refused.
	EventMoveRejected
	// EventOverlayBuilt reports that the MOD overlay is in hand;
	// carries Duration and Scaffold.
	EventOverlayBuilt
	// EventSFCSolved closes the chain work that no destination changes:
	// the chain search over the overlay and the candidate table built
	// from it (order, decode, capacity repair, chain price). It is done
	// once per overlay, so Duration is near zero on a scaffold hit;
	// carries Duration, SFCRowsRelaxed, SFCRowsDominated and SFCRows.
	EventSFCSolved
	// EventSweepEnd closes this task's candidate last-host sweep (one
	// Steiner tree priced per table row the tree lower bound does not
	// rule out, the improving ones materialised); carries Candidates,
	// GeneralTrees, BoundSkips, RepeatRoots and Duration.
	EventSweepEnd
)

// String names the kind; move spans are named by it.
func (k EventKind) String() string {
	switch k {
	case EventAPSPBuild:
		return "apsp_build"
	case EventStage1Start:
		return "stage1_start"
	case EventStage1End:
		return "stage1_end"
	case EventStage2Start:
		return "stage2_start"
	case EventStage2End:
		return "stage2_end"
	case EventOPAPassStart:
		return "opa_pass_start"
	case EventOPAPassEnd:
		return "opa_pass_end"
	case EventMoveProposed:
		return "move_proposed"
	case EventMoveAccepted:
		return "move_accepted"
	case EventMoveRejected:
		return "move_rejected"
	case EventOverlayBuilt:
		return "overlay_built"
	case EventSFCSolved:
		return "sfc_solved"
	case EventSweepEnd:
		return "sweep_end"
	default:
		return "unknown"
	}
}

// Event is one structured solver-phase occurrence. Only the fields
// meaningful for the Kind are populated; the rest stay zero.
type Event struct {
	Kind EventKind
	// Pass is the 1-based stage-two sweep number (pass and move events).
	Pass int
	// Level is the chain level j being re-homed (move events).
	Level int
	// Conn is the connection node of the move's group (move events).
	Conn int
	// From and To are the current and candidate hosts (move events).
	From, To int
	// Group is the number of destinations re-homed together (move events).
	Group int
	// CostBefore and CostAfter bracket a move's global objective.
	CostBefore, CostAfter float64
	// Cost is the objective at a phase boundary (stage end/start events).
	Cost float64
	// Candidates is the number of last-host candidates stage one tried.
	Candidates int
	// GeneralTrees is how many of the sweep's KMB trees were not
	// already trees after the closure expansion and went through
	// Kruskal and pruning (see steiner.Sweep); zero on almost every
	// topology, and always zero for the other Steiner routines.
	GeneralTrees int
	// BoundSkips is how many of the sweep's candidates were not priced
	// because their chain price plus the KMB tree lower bound (see
	// steiner.Sweep.LowerBound) already reached the best total; always
	// zero for the other Steiner routines.
	BoundSkips int
	// RepeatRoots is how many of the sweep's priced candidates had a
	// last host an earlier row of the same solve had already priced, and
	// were answered from the memo instead of a new tree.
	RepeatRoots int
	// SFCRowsRelaxed, SFCRowsDominated and SFCRows say how much of the
	// overlay the chain search behind an EventSFCSolved read: predecessor
	// rows relaxed, rows skipped because a relaxed row already undercut
	// them, and rows with a finite distance (see mod.SFCStats). A
	// scaffold hit reports the cached solution's counts with a Duration
	// near zero (the candidate table is cached with it).
	SFCRowsRelaxed, SFCRowsDominated, SFCRows int
	// Moves counts accepted moves (pass-end and stage-2-end events).
	Moves int
	// Duration is the wall time of the closed phase (end events).
	Duration time.Duration
	// Warm marks an EventAPSPBuild satisfied by the generation-valid
	// metric cache: no APSP ran and Duration is zero by construction.
	// The explicit flag lets consumers distinguish warm solves from a
	// cold build that merely measured fast.
	Warm bool
	// Scaffold marks an EventOverlayBuilt whose overlay came through
	// Options.Scaffolds (a cache hit, or a build shared with concurrent
	// same-signature solves) instead of a private mod.Build.
	Scaffold bool
}

// Observer consumes solver-phase events. Implementations must be
// cheap — events fire inside the stage-two move loop — and safe for
// concurrent use when one Observer is shared across parallel solves.
type Observer interface {
	OnEvent(Event)
}

// emit sends e to the options' observer; the nil check is the entire
// disabled-tracing overhead.
func (o Options) emit(e Event) {
	if o.Observer != nil {
		o.Observer.OnEvent(e)
	}
}

// now returns the current time only when an observer will consume it,
// so untraced solves skip the clock reads entirely.
func (o Options) now() time.Time {
	if o.Observer == nil {
		return time.Time{}
	}
	return time.Now()
}
