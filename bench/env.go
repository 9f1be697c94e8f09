package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// maxProcs caps GOMAXPROCS; the generator never uses more goroutines
// or HTTP connections than the machine has processors.
const maxProcs = 4

// hostInfo is recorded in every result: a number means nothing without
// the machine, the flush policy and the transport it was taken on.
type hostInfo struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	FlushPolicy string `json:"flush_policy"`
	Transport   string `json:"transport"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, cpu %q, kernel %s; WAL flush: %s; HTTP: %s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Kernel, h.FlushPolicy, h.Transport)
}

// probeHost fixes GOMAXPROCS and describes the machine. It refuses a
// single-processor machine: server and generator share the process, and
// on one processor every number would measure their interleaving.
func probeHost() (hostInfo, error) {
	n := runtime.NumCPU()
	if n < 2 {
		return hostInfo{}, fmt.Errorf("nproc = %d: the benchmark needs at least 2 processors", n)
	}
	runtime.GOMAXPROCS(min(n, maxProcs))
	return hostInfo{
		NProc:       n,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Kernel:      firstLine("/proc/sys/kernel/osrelease"),
		FlushPolicy: "SyncAlways (fsync per append), churn_durable only; WAL off elsewhere",
		Transport:   "loopback, in-process (httptest listener; server and generator share the process)",
	}, nil
}

// clients is the number of load-issuing goroutines and HTTP
// connections.
func clients() int { return min(runtime.NumCPU(), maxProcs) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}
