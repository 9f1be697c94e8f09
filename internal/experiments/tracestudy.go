package experiments

import (
	"fmt"
	"math/rand"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/trace"
)

// Trace-study column names.
const (
	ColAcceptance = "Acceptance%"
	ColCost       = "SessionCost"
	ColPeakInst   = "PeakInstances"
)

// TraceStudy evaluates the dynamic-session extension: on one 60-node
// network, sweep the Poisson arrival rate and measure the acceptance
// ratio, mean per-session cost, and peak live-instance footprint. As
// load grows, overlapping sessions compete for node capacity (lower
// acceptance) but also share instances (lower per-session cost) — the
// tension this study quantifies. Columns reuse the Figure schema; the
// time column is unused.
func TraceStudy(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	fig := &Figure{
		ID:       "tracestudy",
		Title:    "Dynamic sessions: acceptance and cost vs arrival rate",
		XLabel:   "arrival rate",
		AlgOrder: []string{ColAcceptance, ColCost, ColPeakInst},
	}
	for _, rate := range []float64{0.5, 1, 2, 4, 8} {
		row := Row{X: rate, Algos: map[string]*Stat{
			ColAcceptance: {}, ColCost: {}, ColPeakInst: {},
		}}
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(rate*1000) + int64(trial)*7))
			net, err := netgen.Generate(netgen.PaperConfig(60, 2), rng)
			if err != nil {
				return nil, fmt.Errorf("tracestudy: %w", err)
			}
			wl := trace.DefaultConfig()
			wl.Sessions = 60
			wl.ArrivalRate = rate
			events, err := trace.Generate(net, wl, rng)
			if err != nil {
				return nil, fmt.Errorf("tracestudy: %w", err)
			}
			stats, err := trace.RunTrace(dynamic.NewManager(net, core.Options{}), events)
			if err != nil {
				return nil, fmt.Errorf("tracestudy: %w", err)
			}
			row.Algos[ColAcceptance].Cost.Add(100 * stats.AcceptanceRatio)
			row.Algos[ColCost].Cost.Add(stats.CostPerSession.Mean())
			row.Algos[ColPeakInst].Cost.Add(float64(stats.PeakInstances))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}
