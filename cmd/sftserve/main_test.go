package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sftree/internal/wal"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunRejectsQueueDepthBelowOne: every admission goes through the
// queue, so a depth that cannot hold a ticket is refused at flag parse
// instead of being reinterpreted.
func TestRunRejectsQueueDepthBelowOne(t *testing.T) {
	for _, depth := range []string{"0", "-3"} {
		err := run(context.Background(), []string{"-queue-depth", depth, "-listen", "127.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), "-queue-depth") {
			t.Errorf("-queue-depth %s: err = %v, want a -queue-depth error", depth, err)
		}
	}
}

// TestRunRejectsFsyncInterval: a WAL record is synced on the commit
// path or not at all, so the retired batched policy is refused with an
// error naming the two that exist.
func TestRunRejectsFsyncInterval(t *testing.T) {
	err := run(context.Background(), []string{"-wal-dir", t.TempDir(), "-fsync", "interval", "-listen", "127.0.0.1:0", "-nodes", "10"})
	if err == nil || !strings.Contains(err.Error(), "always") || !strings.Contains(err.Error(), "none") {
		t.Errorf("-fsync interval: err = %v, want an error naming always and none", err)
	}
}

// TestRunRejectsStatelessWithWAL: a stateless server has no session
// state, so asking it for a write-ahead log is refused instead of
// serving without one.
func TestRunRejectsStatelessWithWAL(t *testing.T) {
	err := run(context.Background(), []string{"-stateless", "-wal-dir", t.TempDir(), "-listen", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "-stateless") || !strings.Contains(err.Error(), "-wal-dir") {
		t.Errorf("-stateless -wal-dir: err = %v, want an error naming both flags", err)
	}
}

func TestRunRejectsMissingNetworkFile(t *testing.T) {
	if err := run(context.Background(), []string{"-network", "/does/not/exist.json", "-listen", "127.0.0.1:0"}); err == nil {
		t.Error("missing network file accepted")
	}
}

func TestRunRejectsGarbageNetworkFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-network", path, "-listen", "127.0.0.1:0"}); err == nil {
		t.Error("garbage network file accepted")
	}
}

func TestRunRejectsBadListenAddress(t *testing.T) {
	// An invalid address makes net.Listen fail immediately, which
	// exercises the full startup path (network generation included).
	if err := run(context.Background(), []string{"-listen", "not-an-address", "-nodes", "10"}); err == nil {
		t.Error("bad listen address accepted")
	}
}

// get asserts a 200 GET and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%.120s)", url, resp.StatusCode, body)
	}
	return body
}

// boot starts run() with the given args and returns the base URL and
// the done channel; shutdown happens through the returned cancel.
func boot(t *testing.T, args []string) (string, context.CancelFunc, chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	onReady = func(a string) { addrCh <- a }
	t.Cleanup(func() { onReady = nil })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	select {
	case addr := <-addrCh:
		return "http://" + addr, cancel, done
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", cancel, done
}

func stopServer(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

// TestShutdownOrdering is the regression test for the graceful-stop
// sequence: hs.Shutdown → queue drain → Manager.Drain → snapshot →
// WAL close. A reorder here can lose committed state (closing the log
// before the final snapshot) or strand queued tickets (draining the
// manager while the queue still dispatches into it).
func TestShutdownOrdering(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	record := func(got *[]string, name string) func(context.Context) error {
		return func(context.Context) error {
			*got = append(*got, name)
			return nil
		}
	}

	var got []string
	steps := shutdownSteps{
		httpShutdown: record(&got, "http"),
		queueDrain:   record(&got, "queue"),
		mgrDrain:     record(&got, "mgr"),
		checkpoint: func() (uint64, error) {
			got = append(got, "snapshot")
			return 1, nil
		},
		closeWAL: func() error {
			got = append(got, "close")
			return nil
		},
	}
	if err := runShutdown(context.Background(), steps, logger); err != nil {
		t.Fatalf("runShutdown: %v", err)
	}
	want := []string{"http", "queue", "mgr", "snapshot", "close"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shutdown order = %v, want %v", got, want)
	}

	// Nil steps (feature off) are skipped without reordering the rest.
	got = nil
	steps.queueDrain = nil
	steps.checkpoint = nil
	if err := runShutdown(context.Background(), steps, logger); err != nil {
		t.Fatalf("runShutdown with nil steps: %v", err)
	}
	if want := []string{"http", "mgr", "close"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shutdown order with nil steps = %v, want %v", got, want)
	}

	// The HTTP shutdown error decides the exit status, but every later
	// step still runs — a stuck listener must not cost the final
	// snapshot.
	got = nil
	sentinel := errors.New("listener stuck")
	steps = shutdownSteps{
		httpShutdown: func(context.Context) error {
			got = append(got, "http")
			return sentinel
		},
		queueDrain: func(context.Context) error {
			got = append(got, "queue")
			return errors.New("queue stuck too")
		},
		closeWAL: func() error {
			got = append(got, "close")
			return nil
		},
	}
	if err := runShutdown(context.Background(), steps, logger); !errors.Is(err, sentinel) {
		t.Fatalf("runShutdown error = %v, want the http shutdown error", err)
	}
	if want := []string{"http", "queue", "close"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shutdown order after errors = %v, want %v", got, want)
	}
}

// TestDurableRestartRecoversSessions: admissions made over HTTP to a
// -wal-dir server survive a full stop/start cycle. The restarted
// process must report the same live-session count and expose the
// recovery counters in /metrics.
func TestDurableRestartRecoversSessions(t *testing.T) {
	walDir := t.TempDir()
	args := []string{"-listen", "127.0.0.1:0", "-nodes", "12", "-seed", "5", "-wal-dir", walDir}

	base, cancel, done := boot(t, args)
	task := []byte(`{"source":0,"destinations":[3,7],"chain":[0]}`)
	var admitted int
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(task))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("no admission succeeded; fixture task is infeasible on the seed-5 network")
	}
	stopServer(t, cancel, done)

	// Same network seed, same WAL dir: the sessions must come back.
	base, cancel, done = boot(t, args)
	defer stopServer(t, cancel, done)

	var ready struct {
		Active int `json:"active_sessions"`
	}
	if err := json.Unmarshal(get(t, base+"/readyz"), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Active != admitted {
		t.Fatalf("restored active sessions = %d, want %d", ready.Active, admitted)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(get(t, base+"/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["restore_sessions_recovered"] != int64(admitted) {
		t.Fatalf("restore_sessions_recovered = %d, want %d (gauges: %v)",
			snap.Gauges["restore_sessions_recovered"], admitted, snap.Gauges)
	}
}

// TestDebugEndpointsAndGracefulShutdown boots the real binary path
// with -debug, probes the observability surface, and then cancels the
// context to exercise the graceful http.Server.Shutdown.
func TestDebugEndpointsAndGracefulShutdown(t *testing.T) {
	addrCh := make(chan string, 1)
	onReady = func(a string) { addrCh <- a }
	defer func() { onReady = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-nodes", "12", "-debug"})
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	get(t, base+"/healthz")
	get(t, base+"/readyz")
	get(t, base+"/debug/vars")
	get(t, base+"/debug/pprof/")

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(get(t, base+"/metrics"), &snap); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}
	if snap.Counters["http_requests_total"] == 0 {
		t.Errorf("http_requests_total not incremented: %+v", snap.Counters)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

// scriptedSnapshots stands in for Manager.Checkpoint: call i answers
// errs[i], and every call past the script succeeds.
type scriptedSnapshots struct {
	errs  []error
	calls int
}

func (s *scriptedSnapshots) snapshot() (uint64, error) {
	s.calls++
	if s.calls <= len(s.errs) && s.errs[s.calls-1] != nil {
		return 0, s.errs[s.calls-1]
	}
	return uint64(s.calls), nil
}

// A snapshot loop logs a failure once until a snapshot lands again,
// retries a log that can heal (a full disk leaves the log open) and
// stops at a closed or poisoned one. Run once, as sftserve does after
// a Restore that left the manager checkpoint-dirty, it stops at the
// first snapshot taken.
func TestSnapshotLoop(t *testing.T) {
	full := errors.New("wal: reserve: no space left on device")
	closed := fmt.Errorf("append: %w", wal.ErrClosed)
	for _, c := range []struct {
		name                 string
		once                 bool
		errs                 []error
		calls, failed, wrote int
	}{
		{"dirty, disk full then freed", true, []error{full, full, full}, 4, 1, 1},
		{"dirty, log closed", true, []error{closed, nil}, 1, 1, 0},
		{"interval", false, []error{nil, full, full, nil, full, closed}, 6, 3, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var logs bytes.Buffer
			s := &scriptedSnapshots{errs: c.errs}
			snapshots(context.Background(), slog.New(slog.NewTextHandler(&logs, nil)), s.snapshot, "test", time.Microsecond, c.once)
			failed, wrote := strings.Count(logs.String(), "snapshot failed"), strings.Count(logs.String(), "snapshot written")
			if s.calls != c.calls || failed != c.failed || wrote != c.wrote {
				t.Errorf("%d attempts, %d failures and %d snapshots logged; want %d, %d and %d:\n%s",
					s.calls, failed, wrote, c.calls, c.failed, c.wrote, logs.String())
			}
		})
	}
}
