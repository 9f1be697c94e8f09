package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultsFile holds one record per line; a directory with it is a
// result set.
const resultsFile = "results.jsonl"

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadRecords(dir string) ([]record, error) {
	f, err := os.Open(filepath.Join(dir, resultsFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// runAll runs every workload untraced and traced, each as a process of
// its own exactly as the driver would start it, so set-up time and the
// process-wide counters start from zero every time.
func runAll(seed int64, seconds float64, runs int, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(outDir, resultsFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, trace := range []string{"0", "1"} {
				cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed+int64(r), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--out", outDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %s): %w", w.name, trace, err)
				}
			}
		}
	}
	return nil
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specWork  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []layerDef  `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 26

func currentSpec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWork{w.name, w.why})
	}
	return s
}

func printSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(currentSpec())
}
