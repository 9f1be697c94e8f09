// Command sfttrace generates a dynamic multicast workload (Poisson
// arrivals, exponential holds, Zipf destination popularity) and
// replays it through the session manager, reporting acceptance ratio,
// per-session cost, and peak instance footprint.
//
// It is also the consumer side of the solver's telemetry streams:
// -parse summarizes a JSONL event stream (sftembed -trace output,
// including request-ID/warm/rung-stamped lines from scoped streams;
// older streams without those fields parse identically), and -traces
// pulls and summarizes a server's /debug/traces ring.
//
// Usage:
//
//	sfttrace -nodes 60 -sessions 200 -rate 2 -hold 8
//	sfttrace -palmetto -sessions 100
//	sfttrace -parse events.jsonl
//	sfttrace -traces http://localhost:8080
package main

import (
	"bufio"
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
		parse    = fs.String("parse", "", "summarize a JSONL solver-event stream instead of running a workload")
		traces   = fs.String("traces", "", "pull and summarize /debug/traces from this server base URL")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parse != "" {
		return parseJSONL(*parse, w)
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

// eventLine mirrors the JSONL wire schema of internal/obs. It lists
// every field a stream has carried, including request_id and rung,
// which only scoped streams (no longer written) held; streams without
// the request_id / warm / rung / scaffold / general_trees / bound_skips
// / sfc_rows fields simply decode those to their zero values, and
// unknown future fields are ignored — the stream stays parseable in
// both directions.
type eventLine struct {
	Kind       string `json:"kind"`
	Pass       int    `json:"pass"`
	Moves      int    `json:"moves"`
	DurationNs int64  `json:"duration_ns"`
	RequestID  string `json:"request_id"`
	Warm       bool   `json:"warm"`
	Rung       string `json:"rung"`
	Scaffold   bool   `json:"scaffold"`
	// GeneralTrees rides on sweep_end: KMB trees that needed Kruskal
	// and pruning because the closure expansion held a cycle.
	GeneralTrees int `json:"general_trees"`
	// BoundSkips rides on sweep_end: candidates left unpriced because
	// the tree lower bound ruled them out.
	BoundSkips int `json:"bound_skips"`
	// SFCRowsRelaxed and SFCRows ride on sfc_solved: predecessor rows
	// the chain search relaxed, of rows with a finite distance.
	SFCRowsRelaxed int `json:"sfc_rows_relaxed"`
	SFCRows        int `json:"sfc_rows"`
}

// parseJSONL summarizes a solver-event JSONL stream: per-kind counts,
// phase time totals, warm/cold solve split, the stage-one split into
// overlay, SFC chain search and candidate sweep, and — when the stream was
// scoped — the distinct request IDs and repair rungs seen.
func parseJSONL(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	kinds := map[string]int{}
	durations := map[string]time.Duration{}
	requests := map[string]int{}
	rungs := map[string]int{}
	warmBuilds, coldBuilds, scaffolded, generalTrees, boundSkips, lines, badLines := 0, 0, 0, 0, 0, 0, 0
	rowsRelaxed, rows := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev eventLine
		if err := json.Unmarshal(line, &ev); err != nil || ev.Kind == "" {
			badLines++
			continue
		}
		lines++
		kinds[ev.Kind]++
		durations[ev.Kind] += time.Duration(ev.DurationNs)
		if ev.RequestID != "" {
			requests[ev.RequestID]++
		}
		if ev.Rung != "" {
			rungs[ev.Rung]++
		}
		if ev.Kind == "apsp_build" {
			if ev.Warm {
				warmBuilds++
			} else {
				coldBuilds++
			}
		}
		if ev.Kind == "overlay_built" && ev.Scaffold {
			scaffolded++
		}
		generalTrees += ev.GeneralTrees
		boundSkips += ev.BoundSkips
		rowsRelaxed += ev.SFCRowsRelaxed
		rows += ev.SFCRows
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("%s: no parseable events (%d bad lines)", path, badLines)
	}

	fmt.Fprintf(w, "%s: %d events", path, lines)
	if badLines > 0 {
		fmt.Fprintf(w, " (%d unparseable lines skipped)", badLines)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if d := durations[k]; d > 0 {
			fmt.Fprintf(w, "  %-14s %6d  total %s\n", k, kinds[k], d.Round(time.Microsecond))
		} else {
			fmt.Fprintf(w, "  %-14s %6d\n", k, kinds[k])
		}
	}
	fmt.Fprintf(w, "solves: %d (%d warm metric, %d cold)\n",
		kinds["stage2_end"], warmBuilds, coldBuilds)
	if n := kinds["overlay_built"]; n > 0 {
		fmt.Fprintf(w, "stage one %s: overlay %s (%d/%d via scaffold cache), sfc search %s (%d of %d predecessor rows), candidate sweep %s (%d general-branch KMB trees, %d candidates skipped by the bound)\n",
			durations["stage1_end"].Round(time.Microsecond),
			durations["overlay_built"].Round(time.Microsecond), scaffolded, n,
			durations["sfc_solved"].Round(time.Microsecond), rowsRelaxed, rows,
			durations["sweep_end"].Round(time.Microsecond), generalTrees, boundSkips)
	}
	if len(requests) > 0 {
		fmt.Fprintf(w, "request-scoped events: %d distinct request IDs\n", len(requests))
	}
	if len(rungs) > 0 {
		rn := make([]string, 0, len(rungs))
		for r := range rungs {
			rn = append(rn, r)
		}
		sort.Strings(rn)
		for _, r := range rn {
			fmt.Fprintf(w, "repair rung %s: %d events\n", r, rungs[r])
		}
	}
	return nil
}

// summarizeTraces pulls a server's /debug/traces ring and reports the
// serving-path story it tells: ops, warm ratio, repair rungs, request
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
	rungs := map[string]int{}
	warm, withID, early, failed := 0, 0, 0, 0
	ahead, stale := 0, 0 // admissions the queue solved ahead of their turn; those solved again
	var stage1 time.Duration
	generalTrees, boundSkips, rowsRelaxed, rows := 0, 0, 0, 0
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
				rowsRelaxed += int(c.Attrs["rows_relaxed"])
				rows += int(c.Attrs["rows"])
			}
		}
		ops[t.Op]++
		if t.Rung != "" {
			rungs[t.Rung]++
		}
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
	rn := make([]string, 0, len(rungs))
	for r := range rungs {
		rn = append(rn, r)
	}
	sort.Strings(rn)
	for _, r := range rn {
		fmt.Fprintf(w, "  repair rung %-8s %5d\n", r, rungs[r])
	}
	fmt.Fprintf(w, "warm-metric solves %d/%d, request-ID stamped %d/%d, early stops %d, failures %d\n",
		warm, len(doc.Traces), withID, len(doc.Traces), early, failed)
	if ahead > 0 {
		fmt.Fprintf(w, "solved ahead of their turn %d/%d admissions, %d stale and solved again\n", ahead, ops["admit"], stale)
	}
	if stage1 > 0 {
		fmt.Fprintf(w, "stage one %s: overlay %s, sfc search %s (%d of %d predecessor rows), candidate sweep %s (%d general-branch KMB trees, %d candidates skipped by the bound)\n",
			stage1.Round(time.Microsecond), split["overlay"].Round(time.Microsecond),
			split["sfc_dijkstra"].Round(time.Microsecond), rowsRelaxed, rows,
			split["candidate_sweep"].Round(time.Microsecond), generalTrees, boundSkips)
	}
	fmt.Fprintf(w, "slowest: op=%s dur=%s warm=%v speculative=%v stale=%v request_id=%s\n",
		slowest.Op, time.Duration(slowest.DurationNs).Round(time.Microsecond), slowest.Warm, slowest.Speculative, slowest.Stale, slowest.RequestID)
	return nil
}
