package sftree

import (
	"math/rand"

	"sftree/internal/dynamic"
	"sftree/internal/trace"
)

// Dynamic session management: admit and release many multicast tasks
// over one shared network, with cross-session instance reuse and
// reference-counted teardown (see internal/dynamic).
type (
	// SessionManager owns a network's dynamic deployment state.
	SessionManager = dynamic.Manager
	// Session is one live admitted task.
	Session = dynamic.Session
	// SessionID identifies an admitted session.
	SessionID = dynamic.SessionID
	// SessionStats snapshots a manager's counters.
	SessionStats = dynamic.Stats
	// TraceStats aggregates a workload-trace replay.
	TraceStats = trace.TraceStats

	// TraceConfig controls workload-trace generation.
	TraceConfig = trace.Config
	// TraceEvent is one arrival or departure.
	TraceEvent = trace.Event
	// TraceSummary describes a generated trace.
	TraceSummary = trace.Summary
)

// Trace event kinds.
const (
	TraceArrival   = trace.Arrival
	TraceDeparture = trace.Departure
)

// ErrRejected is returned by SessionManager.Admit when the network
// cannot host a task.
var ErrRejected = dynamic.ErrRejected

// NewSessionManager wraps a network for dynamic multicast session
// management. The manager owns the network's deployment state.
func NewSessionManager(net *Network, opts Options) *SessionManager {
	return dynamic.NewManager(net, opts)
}

// DefaultTraceConfig returns a CDN-flavoured workload configuration.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// GenerateTrace samples a session arrival/departure timeline on the
// network, deterministically from the seed.
func GenerateTrace(net *Network, cfg TraceConfig, seed int64) ([]TraceEvent, error) {
	return trace.Generate(net, cfg, rand.New(rand.NewSource(seed)))
}

// SummarizeTrace computes workload statistics for a timeline.
func SummarizeTrace(events []TraceEvent) TraceSummary { return trace.Summarize(events) }

// RunTrace replays a timeline through the manager.
func RunTrace(m *SessionManager, events []TraceEvent) (*TraceStats, error) {
	return trace.RunTrace(m, events)
}
