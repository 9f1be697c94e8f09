package trace

import (
	"errors"
	"fmt"

	"sftree/internal/dynamic"
	"sftree/internal/metrics"
)

// TraceStats aggregates a trace replay.
type TraceStats struct {
	Admitted, Rejected int
	AcceptanceRatio    float64
	CostPerSession     metrics.Sample
	PeakActive         int
	PeakInstances      int
}

// RunTrace replays a generated workload trace through the manager:
// arrivals are admitted (rejections counted, not fatal), departures
// release their session if it was admitted.
func RunTrace(m *dynamic.Manager, events []Event) (*TraceStats, error) {
	stats := &TraceStats{}
	admittedID := make(map[int]dynamic.SessionID)
	for _, ev := range events {
		switch ev.Kind {
		case Arrival:
			sess, err := m.Admit(ev.Task)
			if err != nil {
				if errors.Is(err, dynamic.ErrRejected) {
					stats.Rejected++
					continue
				}
				return nil, err
			}
			admittedID[ev.Arrival] = sess.ID
			stats.Admitted++
			stats.CostPerSession.Add(sess.Result.FinalCost)
			if a := m.Active(); a > stats.PeakActive {
				stats.PeakActive = a
			}
			if li := m.LiveInstances(); li > stats.PeakInstances {
				stats.PeakInstances = li
			}
		case Departure:
			id, ok := admittedID[ev.Arrival]
			if !ok {
				continue // the arrival was rejected
			}
			delete(admittedID, ev.Arrival)
			if err := m.Release(id); err != nil {
				return nil, fmt.Errorf("trace: departure: %w", err)
			}
		default:
			return nil, fmt.Errorf("trace: unknown event kind %d", ev.Kind)
		}
	}
	if total := stats.Admitted + stats.Rejected; total > 0 {
		stats.AcceptanceRatio = float64(stats.Admitted) / float64(total)
	}
	return stats, nil
}
