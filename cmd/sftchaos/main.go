// Command sftchaos runs the fault and crash gates: one seeded op script
// of admissions, releases, fault events and crashes drives the dynamic
// manager through its repair path and, with crashes, through WAL
// restores, and every non-degraded session is re-verified after every
// op with the core validator, the failed-element walk check and the
// flow-level replay.
//
// Usage:
//
//	sftchaos -nodes 40 -sessions 30 -faults 20 -seed 7
//	sftchaos -crash 2 -nodes 30 -sessions 12 -ops 30 -faults 5 -seed 7
//	sftchaos -nodes 40 -seed 7 -emit-script > script.json
//	sftchaos -script script.json
//
// The generated script is -sessions admits, then -ops mixed
// admit/release/fault ops, then the fault events not yet used. -crash N
// adds N crashes (the last one inside an admission's commit critical
// section, between WAL append and in-memory apply); the crash run is
// then compared with a never-crashed oracle after every op.
//
// The process exits non-zero when a check fails, when the crash run
// lost a committed session or diverged from the oracle, or when
// repairs happened but none reused a surviving instance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sftree/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sftchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sftchaos", flag.ContinueOnError)
	var (
		cfg        sim.GenConfig
		scriptFile = fs.String("script", "", "run this JSON op script instead of generating one")
		emit       = fs.Bool("emit-script", false, "print the generated op script as JSON and exit")
		walDir     = fs.String("wal-dir", "", "WAL directory for the crash run (default: a temp dir)")
	)
	fs.IntVar(&cfg.Nodes, "nodes", 40, "network size")
	fs.IntVar(&cfg.Sessions, "sessions", 30, "admits that open the script")
	fs.IntVar(&cfg.Ops, "ops", 0, "mixed admit/release/fault ops after the opening admits")
	fs.IntVar(&cfg.Faults, "faults", 20, "fault events in the script")
	fs.IntVar(&cfg.Crashes, "crash", 0, "crashes in the script, each followed by a WAL restore")
	fs.Int64Var(&cfg.Seed, "seed", 7, "seed for network, tasks, faults and op mix")
	if err := fs.Parse(args); err != nil {
		return err
	}

	script := new(sim.Script)
	if *scriptFile != "" {
		b, err := os.ReadFile(*scriptFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, script); err != nil {
			return fmt.Errorf("%s: %w", *scriptFile, err)
		}
	} else {
		var err error
		if script, err = sim.Generate(cfg); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if *emit {
		return enc.Encode(script)
	}

	base, err := script.Network()
	if err != nil {
		return err
	}
	rep, err := script.Run(base, *walDir)
	if err != nil {
		return err
	}
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Passed() {
		return fmt.Errorf("gate failed: %d validation errors, %d lost sessions, %d mismatches",
			len(rep.ValidationErrors), len(rep.LostSessions), len(rep.Mismatches))
	}
	if repairs := rep.Patched + rep.Reembeds; repairs > 0 && rep.RepairsWithReuse == 0 {
		return errors.New("repairs happened but none reused a surviving instance")
	}
	return nil
}
