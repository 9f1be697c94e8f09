// Command sftbench regenerates the paper's evaluation figures (and
// this repository's ablations) as text tables and optional CSV files.
//
// Usage:
//
//	sftbench -fig all                 # every paper figure, default trials
//	sftbench -fig 13 -trials 10 -ref  # Fig. 13 with the OPT* reference
//	sftbench -fig ablations           # design-choice ablations
//	sftbench -fig 8 -csv out/         # also write out/fig8.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sftree/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sftbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sftbench", flag.ContinueOnError)
	var (
		figID    = fs.String("fig", "all", `figure to run: 8..14, "gap", "trace", "all", or "ablations"`)
		trials   = fs.Int("trials", 5, "trials per sweep point")
		seed     = fs.Int64("seed", 1, "root random seed")
		ref      = fs.Bool("ref", false, "include the OPT* best-known reference on Figs. 13/14 (slow)")
		csvDir   = fs.String("csv", "", "directory to also write per-figure CSV files into")
		parallel = fs.Int("parallel", 1, "concurrent trials per point (>1 makes timing columns noisy)")
		chart    = fs.Bool("chart", false, "also draw ASCII bar charts of the cost series")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, WithReference: *ref, Parallel: *parallel}

	var figs []*experiments.Figure
	switch *figID {
	case "all":
		all, err := experiments.All(cfg)
		if err != nil {
			return err
		}
		figs = all
	case "ablations":
		abl, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		figs = abl
	default:
		runner, ok := experiments.ByID(*figID)
		if !ok {
			return fmt.Errorf("unknown figure %q (want 8..14, all, ablations)", *figID)
		}
		fig, err := runner(cfg)
		if err != nil {
			return err
		}
		figs = []*experiments.Figure{fig}
	}

	for _, fig := range figs {
		fmt.Println(fig.CostTable())
		fmt.Println(fig.TimeTable())
		if *chart {
			fmt.Println(fig.CostChart())
		}
		fmt.Println(fig.Summary())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	return nil
}
