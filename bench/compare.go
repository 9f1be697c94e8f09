package main

import (
	"errors"
	"fmt"
	"io"
)

// verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// row is one line of the comparison.
type row struct {
	workload, metric   string
	unit               string
	medianA, medianB   float64
	spreadA, spreadB   float64
	worseBy, bound     float64 // shares of A's median; worseBy > 0 means B is worse
	verdict            string
	samplesA, samplesB int
}

// judge applies the acceptance rule to one pair: B regresses when its
// median is worse than A's by more than the bound; when either set's
// own spread (interquartile distance over median) exceeds the bound the
// pair is unresolved instead, because the runs cannot tell.
func judge(d metricDef, a, b []float64) row {
	r := row{metric: d.Name, unit: d.Unit, bound: d.Bound, samplesA: len(a), samplesB: len(b),
		medianA: quartileMedian(a), medianB: quartileMedian(b), spreadA: spread(a), spreadB: spread(b)}
	if r.medianA != 0 {
		r.worseBy = (r.medianB - r.medianA) / r.medianA
		if d.Better == higher {
			r.worseBy = -r.worseBy
		}
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		r.verdict = verdictUnresolved
	case r.spreadA > d.Bound || r.spreadB > d.Bound:
		r.verdict = verdictUnresolved
	case r.worseBy > d.Bound:
		r.verdict = verdictRegression
	default:
		r.verdict = verdictOK
	}
	return r
}

// compareSets judges every pair of workload and end-to-end metric,
// from the untraced runs of both sets.
func compareSets(a, b []record) []row {
	values := func(recs []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload == workload && !r.Trace {
				if m, ok := r.Metrics[metric]; ok {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	var rows []row
	for _, w := range workloads {
		for _, d := range endToEnd {
			r := judge(d, values(a, w.name, d.Name), values(b, w.name, d.Name))
			r.workload = w.name
			rows = append(rows, r)
		}
	}
	return rows
}

func runCompare(w io.Writer, dirA, dirB string) error {
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	rows := compareSets(a, b)
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %-5s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "median A", "median B", "unit", "worse by", "bound", "iqr A", "iqr B", "verdict")
	regressions, unresolved := 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %12.4f %12.4f %-5s %+7.1f%% %6.1f%% %6.1f%% %6.1f%%  %s (n=%d/%d)\n",
			r.workload, r.metric, r.medianA, r.medianB, r.unit, r.worseBy*100, r.bound*100,
			r.spreadA*100, r.spreadB*100, r.verdict, r.samplesA, r.samplesB)
		switch r.verdict {
		case verdictRegression:
			regressions++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "%d pairs: %d regressions, %d unresolved\n", len(rows), regressions, unresolved)
	if regressions > 0 {
		return errors.New("regression beyond the bound")
	}
	return nil
}
