// Command sfttrace generates a dynamic multicast workload (Poisson
// arrivals, exponential holds, Zipf destination popularity) and
// replays it through the session manager, reporting acceptance ratio,
// per-session cost, and peak instance footprint.
//
// It is also the consumer side of the solver's telemetry: -traces
// pulls a server's /debug/traces ring and summarizes its span trees.
//
// Usage:
//
//	sfttrace -nodes 60 -sessions 200 -rate 2 -hold 8
//	sfttrace -palmetto -sessions 100
//	sfttrace -traces http://localhost:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"sftree"
	"sftree/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sfttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sfttrace", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 60, "network size (ignored with -palmetto)")
		palmetto = fs.Bool("palmetto", false, "use the PalmettoNet topology")
		sessions = fs.Int("sessions", 100, "number of session arrivals")
		rate     = fs.Float64("rate", 1, "Poisson arrival rate")
		hold     = fs.Float64("hold", 10, "mean session holding time")
		seed     = fs.Int64("seed", 1, "random seed")
		mu       = fs.Float64("mu", 2, "setup cost multiplier")
		traces   = fs.String("traces", "", "pull and summarize /debug/traces from this server base URL")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traces != "" {
		return summarizeTraces(*traces, w)
	}
	var (
		net *sftree.Network
		err error
	)
	if *palmetto {
		net, _, err = sftree.PalmettoNetwork(sftree.DefaultGenConfig(45, *mu), *seed)
	} else {
		net, err = sftree.GenerateNetwork(sftree.DefaultGenConfig(*nodes, *mu), *seed)
	}
	if err != nil {
		return err
	}
	cfg := sftree.DefaultTraceConfig()
	cfg.Sessions = *sessions
	cfg.ArrivalRate = *rate
	cfg.MeanHold = *hold
	events, err := sftree.GenerateTrace(net, cfg, *seed+1)
	if err != nil {
		return err
	}
	sum := sftree.SummarizeTrace(events)
	fmt.Fprintf(w, "workload: %d sessions over %.1f time units, peak overlap %d, mean |D| %.1f, mean SFC %.1f\n",
		sum.Sessions, sum.Span, sum.PeakOverlap, sum.MeanDests, sum.MeanChainLen)

	m := sftree.NewSessionManager(net, sftree.Options{})
	stats, err := sftree.RunTrace(m, events)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "admitted %d, rejected %d (acceptance %.1f%%)\n",
		stats.Admitted, stats.Rejected, 100*stats.AcceptanceRatio)
	fmt.Fprintf(w, "per-session cost: mean %.1f, min %.1f, max %.1f\n",
		stats.CostPerSession.Mean(), stats.CostPerSession.Min(), stats.CostPerSession.Max())
	fmt.Fprintf(w, "peak concurrent sessions %d, peak live dynamic instances %d\n",
		stats.PeakActive, stats.PeakInstances)
	final := m.Stats()
	fmt.Fprintf(w, "final state: %d active sessions, cumulative admitted cost %.1f\n",
		final.Active, final.AdmittedCost)
	return nil
}

// summarizeTraces pulls a server's /debug/traces ring and reports the
// serving-path story it tells: ops, warm ratio, request
// ID coverage, where stage one's time went and the slowest runs.
func summarizeTraces(base string, w io.Writer) error {
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/traces: %s", resp.Status)
	}
	var doc struct {
		Capacity int         `json:"capacity"`
		Added    int64       `json:"added"`
		Dropped  int64       `json:"dropped"`
		Traces   []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace ring: %d held (capacity %d, %d added, %d evicted)\n",
		len(doc.Traces), doc.Capacity, doc.Added, doc.Dropped)
	if len(doc.Traces) == 0 {
		return nil
	}
	ops := map[string]int{}
	warm, withID, early, failed := 0, 0, 0, 0
	ahead, stale := 0, 0 // admissions the queue solved ahead of their turn; those solved again
	var stage1 time.Duration
	generalTrees, boundSkips, repeatRoots, rowsRelaxed, rowsDominated, rows := 0, 0, 0, 0, 0, 0
	treeBound, sweeps := 0.0, 0         // the sweeps' last-stage tree bounds, summed, and how many
	split := map[string]time.Duration{} // stage-one sub-phase totals by span name
	slowest := doc.Traces[0]
	for _, t := range doc.Traces {
		for _, s := range t.Spans {
			if s.Name != "stage1" || len(s.Children) == 0 {
				continue
			}
			stage1 += time.Duration(s.DurationNs)
			for _, c := range s.Children {
				split[c.Name] += time.Duration(c.DurationNs)
				generalTrees += int(c.Attrs["general_trees"])
				boundSkips += int(c.Attrs["bound_skips"])
				if c.Name == "candidate_sweep" {
					treeBound += c.Attrs["tree_bound"]
					sweeps++
				}
				repeatRoots += int(c.Attrs["repeat_roots"])
				rowsRelaxed += int(c.Attrs["rows_relaxed"])
				rowsDominated += int(c.Attrs["rows_dominated"])
				rows += int(c.Attrs["rows"])
			}
		}
		ops[t.Op]++
		if t.Warm {
			warm++
		}
		if t.RequestID != "" {
			withID++
		}
		if t.EarlyStop {
			early++
		}
		if t.Err != "" {
			failed++
		}
		if t.Speculative {
			ahead++
		}
		if t.Stale {
			stale++
		}
		if t.DurationNs > slowest.DurationNs {
			slowest = t
		}
	}
	names := make([]string, 0, len(ops))
	for k := range ops {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  op %-7s %5d\n", k, ops[k])
	}
	fmt.Fprintf(w, "warm-metric solves %d/%d, request-ID stamped %d/%d, early stops %d, failures %d\n",
		warm, len(doc.Traces), withID, len(doc.Traces), early, failed)
	if ahead > 0 {
		fmt.Fprintf(w, "solved ahead of their turn %d/%d admissions, %d stale and solved again\n", ahead, ops["admit"], stale)
	}
	if stage1 > 0 {
		meanBound := 0.0
		if sweeps > 0 {
			meanBound = treeBound / float64(sweeps)
		}
		fmt.Fprintf(w, "stage one %s: overlay %s, sfc search %s (%d of %d predecessor rows, %d dominated), candidate sweep %s (%d general-branch KMB trees, %d candidates skipped by the bound, last-stage tree bound %.4g on average, %d repeated roots)\n",
			stage1.Round(time.Microsecond), split["overlay"].Round(time.Microsecond),
			split["sfc_dijkstra"].Round(time.Microsecond), rowsRelaxed, rows, rowsDominated,
			split["candidate_sweep"].Round(time.Microsecond), generalTrees, boundSkips, meanBound, repeatRoots)
	}
	fmt.Fprintf(w, "slowest: op=%s dur=%s warm=%v speculative=%v stale=%v request_id=%s\n",
		slowest.Op, time.Duration(slowest.DurationNs).Round(time.Microsecond), slowest.Warm, slowest.Speculative, slowest.Stale, slowest.RequestID)
	return nil
}
