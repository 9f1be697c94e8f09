package wal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sftree/internal/nfv"
)

// testRecord builds a small admit record with a non-trivial embedding
// so round-trips exercise the nested encoding.
func testRecord(sess int64) *Record {
	return &Record{
		Type:    RecAdmit,
		Session: sess,
		Embedding: &nfv.Embedding{
			Task: nfv.Task{Source: 0, Destinations: []int{2, 3}, Chain: nfv.SFC{1}},
			Walks: []nfv.Walk{
				{{Level: 1, Path: []int{0, 1}}, {Level: 1, Path: []int{1, 2}}},
				{{Level: 1, Path: []int{0, 1}}, {Level: 1, Path: []int{1, 3}}},
			},
			NewInstances: []nfv.Instance{{VNF: 1, Node: 1, Level: 1}},
		},
		FinalCost: 4.5,
		Uses:      [][2]int{{1, 1}},
	}
}

func openFresh(t *testing.T, dir string, cfg Config) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openFresh(t, dir, Config{})
	if !rec.Empty() {
		t.Fatalf("fresh dir: recovery not empty: %+v", rec)
	}
	for i := int64(0); i < 5; i++ {
		seq, err := l.Append(testRecord(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("Append %d: seq %d, want %d (numbering starts at 1)", i, seq, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openFresh(t, dir, Config{})
	defer l2.Close()
	if rec2.Snapshot != nil {
		t.Fatalf("unexpected snapshot: %+v", rec2.Snapshot)
	}
	if len(rec2.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec2.Records))
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || r.Session != int64(i) || r.Type != RecAdmit {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
		if r.Embedding == nil || len(r.Embedding.Walks) != 2 {
			t.Fatalf("record %d lost its embedding: %+v", i, r)
		}
	}
	// New appends continue the sequence.
	seq, err := l2.Append(testRecord(99))
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if seq != 6 {
		t.Fatalf("post-recovery seq %d, want 6", seq)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	for i := int64(0); i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _, err := scanDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("scanDir: segs=%v err=%v", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the final record mid-frame: a crash mid-append.
	if err := os.WriteFile(path, blob[:len(blob)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2 (torn third discarded)", len(rec.Records))
	}
	// The next append must reuse the discarded sequence number.
	seq, err := l2.Append(testRecord(9))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("append after torn tail got seq %d, want 3", seq)
	}
}

func TestCorruptionMidSegmentIsTyped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	for i := int64(0); i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	path := filepath.Join(dir, segs[0].name)
	blob, _ := os.ReadFile(path)
	// Flip one payload byte of the FIRST record: checksum fails, and a
	// valid record follows, so this cannot be a torn tail... except the
	// scanner cannot resync after a bad frame, so it treats everything
	// from the flip as the tail. For the last segment that is a
	// tolerated tear; the clean prefix (zero records here is wrong —
	// record 1's payload was hit, so the prefix is empty) must replay.
	blob[frameHeaderSize+2] ^= 0xFF
	os.WriteFile(path, blob, 0o644)

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if !rec.TornTail {
		t.Fatal("expected the damaged tail to be reported")
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records from a log damaged at record 1, want 0", len(rec.Records))
	}
}

func TestSnapshotRecoveryAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	for i := int64(0); i < 4; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := &Snapshot{
		NextID:   4,
		Sessions: []SessionState{{ID: 0, Embedding: testRecord(0).Embedding, FinalCost: 4.5}},
		Refs:     []RefCount{{VNF: 1, Node: 1, Count: 1}},
		Counters: Counters{Admitted: 4, AdmittedCost: 18},
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if snap.Seq != 4 {
		t.Fatalf("snapshot folded seq %d, want 4", snap.Seq)
	}
	// Two more records after the rotation.
	for i := int64(4); i < 6; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if rec.Snapshot == nil {
		t.Fatal("snapshot not recovered")
	}
	if rec.Snapshot.Seq != 4 || rec.Snapshot.NextID != 4 || rec.Snapshot.Counters.Admitted != 4 {
		t.Fatalf("snapshot mismatch: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("replayed %d tail records, want 2", len(rec.Records))
	}
	if rec.Records[0].Seq != 5 || rec.Records[1].Seq != 6 {
		t.Fatalf("tail seqs %d,%d want 5,6", rec.Records[0].Seq, rec.Records[1].Seq)
	}
}

func TestSnapshotFallbackWhenNewestCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	l.Append(testRecord(0))
	if err := l.WriteSnapshot(&Snapshot{NextID: 1, Counters: Counters{Admitted: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Append(testRecord(1))
	if err := l.WriteSnapshot(&Snapshot{NextID: 2, Counters: Counters{Admitted: 2}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, snaps, _ := scanDir(dir)
	if len(snaps) != 2 {
		t.Fatalf("want 2 retained snapshots, have %v", snaps)
	}
	// Corrupt the newest snapshot; recovery must fall back to the
	// previous one and replay the records after IT.
	newest := filepath.Join(dir, snaps[1].name)
	blob, _ := os.ReadFile(newest)
	blob[frameHeaderSize] ^= 0xFF
	os.WriteFile(newest, blob, 0o644)

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Counters.Admitted != 1 {
		t.Fatalf("fallback snapshot not used: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 1 || rec.Records[0].Session != 1 {
		t.Fatalf("tail after fallback: %+v", rec.Records)
	}
}

func TestEmptySnapshotNeverMasksRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	// Snapshot before any record: folds nothing (Seq 0).
	if err := l.WriteSnapshot(&Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("record after empty snapshot lost: %+v", rec)
	}
}

func TestCrashLosesNothingUnderSyncAlways(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{Policy: SyncAlways})
	for i := int64(0); i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash()
	if _, err := l.Append(testRecord(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after crash: err=%v, want ErrClosed", err)
	}

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("crash lost records: recovered %d, want 3", len(rec.Records))
	}
}

func TestTornTailTruncatedBeforeSecondCrash(t *testing.T) {
	// The double-crash scenario: crash mid-append (partial frame at the
	// tail), restart (tolerated tear), append one record, crash again,
	// restart. Recovery must truncate the tear from disk during the
	// first restart — otherwise the partial frame sits in a non-final
	// segment by the second restart and replay refuses to start,
	// stranding every committed record.
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	for i := int64(0); i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.CrashTorn()

	l2, rec := openFresh(t, dir, Config{})
	if !rec.TornTail {
		t.Fatal("first restart did not report the torn tail")
	}
	if len(rec.Records) != 3 {
		t.Fatalf("first restart recovered %d records, want 3", len(rec.Records))
	}
	if _, err := l2.Append(testRecord(3)); err != nil {
		t.Fatalf("append after torn restart: %v", err)
	}
	l2.Crash()

	l3, rec3 := openFresh(t, dir, Config{})
	defer l3.Close()
	if rec3.TornTail {
		t.Fatal("truncated tear resurfaced on the second restart")
	}
	if len(rec3.Records) != 4 {
		t.Fatalf("second restart recovered %d records, want 4", len(rec3.Records))
	}
}

// lastSegment returns the path of the newest segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("scanDir: segs=%v err=%v", segs, err)
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

// TestPowerLossKeepsEveryAckedRecord is the crash the process-kill
// tests cannot stage: the page cache is gone, so what follows the last
// synced frame is whatever the device happened to have. Each tail
// shape is written over a copy of a crashed log; recovery must return
// exactly the acked records, and must leave a directory a second crash
// can recover from — the tail is cut before the next segment exists.
func TestPowerLossKeepsEveryAckedRecord(t *testing.T) {
	const acked = 5
	src := t.TempDir()
	l, _ := openFresh(t, src, Config{Policy: SyncAlways})
	for i := int64(0); i < acked; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash()
	image, err := os.ReadFile(lastSegment(t, src))
	if err != nil {
		t.Fatal(err)
	}
	end := int(l.off) // every byte before it was synced and acked
	zeros := func(n int) []byte { return make([]byte, n) }
	// The frame the power loss caught in flight: three pages long, so
	// some of its pages can land without the one holding its header.
	big := testRecord(acked)
	big.Seq = acked + 1
	for i := 0; i < 1500; i++ {
		big.Uses = append(big.Uses, [2]int{i, i})
	}
	payload, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	next := frame(nil, payload)
	if len(next) < 3*4096 || end+len(next) > len(image) {
		t.Fatalf("in-flight frame of %d bytes does not span three pages inside the %d-byte allocation", len(next), len(image))
	}
	headless := append([]byte(nil), next...)
	clear(headless[:4096]) // its first page never reached the device

	for _, tc := range []struct {
		name string
		tail []byte
		torn bool
	}{
		{"zeros to the end of the allocation", zeros(len(image) - end), false},
		{"first half of the next frame", append(next[:len(next)/2:len(next)/2], zeros(len(image)-end-len(next)/2)...), true},
		{"later pages without the header page", append(headless, zeros(len(image)-end-len(next))...), false},
		{"cut at the acked offset", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
				t.Fatal(err)
			}
			seg := lastSegment(t, dir)
			if err := os.WriteFile(seg, append(image[:end:end], tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := Open(dir, Config{Policy: SyncAlways})
			if err != nil {
				t.Fatalf("Open after power loss: %v", err)
			}
			if len(rec.Records) != acked || rec.TornTail != tc.torn {
				t.Fatalf("recovered %d records, torn=%v; want %d, torn=%v", len(rec.Records), rec.TornTail, acked, tc.torn)
			}
			if info, err := os.Stat(seg); err != nil || info.Size() != int64(end) {
				t.Fatalf("segment not cut back to the acked offset %d: %v, %v", end, info, err)
			}
			// Second crash, before any snapshot folds the old segment away.
			if _, err := l2.Append(testRecord(acked)); err != nil {
				t.Fatal(err)
			}
			l2.Crash()
			l3, rec3, err := Open(dir, Config{})
			if err != nil {
				t.Fatalf("Open after the second crash: %v", err)
			}
			defer l3.Close()
			if len(rec3.Records) != acked+1 || rec3.TornTail {
				t.Fatalf("second restart recovered %d records, torn=%v; want %d clean", len(rec3.Records), rec3.TornTail, acked+1)
			}
		})
	}
}

// TestAppendInsideReservationMovesNoFileSize pins what makes the
// per-commit sync data-only: once a chunk is reserved, appends land
// inside it and the file keeps its size; Close cuts the file back to
// the records, so the segment a later Open leaves behind has no tail.
func TestAppendInsideReservationMovesNoFileSize(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	seg := lastSegment(t, dir)
	size := func() int64 {
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	if _, err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if l.growOnly {
		t.Skip("no fallocate on this filesystem: appends grow the file")
	}
	reserved := size()
	if reserved != l.reserved || reserved < reserveChunk {
		t.Fatalf("file is %d bytes after the first append, reservation ends at %d", reserved, l.reserved)
	}
	for i := int64(1); i < 50; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if got := size(); got != reserved {
			t.Fatalf("append %d moved the file size %d -> %d", i, reserved, got)
		}
	}
	records := l.off
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != records {
		t.Fatalf("closed segment is %d bytes, its records %d", got, records)
	}
}

// TestRefusedReservationLeavesLogOpen hands Append a full disk: the
// refusal comes from the reservation, before a byte of the frame is
// written, so the log is not poisoned and the next append — space
// freed — takes the same sequence number and replays.
func TestRefusedReservationLeavesLogOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	if _, err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// Rotate, so the next append has to reserve.
	if err := l.WriteSnapshot(&Snapshot{NextID: 1}); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("no space left on device")
	preallocate = func(*os.File, int64, int64) error { return errFull }
	defer func() { preallocate = fallocate }()
	if _, err := l.Append(testRecord(1)); !errors.Is(err, errFull) {
		t.Fatalf("append on a full disk: err=%v, want the reservation's error", err)
	}
	if info, err := os.Stat(lastSegment(t, dir)); err != nil || info.Size() != 0 {
		t.Fatalf("refused frame left bytes on disk: %v, %v", info, err)
	}
	preallocate = fallocate
	seq, err := l.Append(testRecord(2))
	if err != nil || seq != 2 {
		t.Fatalf("append after space freed: seq=%d err=%v, want 2", seq, err)
	}
	l.Crash()

	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if len(rec.Records) != 1 || rec.Records[0].Seq != 2 || rec.Records[0].Session != 2 {
		t.Fatalf("replay after a refused append: %+v", rec.Records)
	}
}

// TestNoFallocateGrowsTheFile runs the log the way a filesystem (or a
// platform) without fallocate leaves it: nothing is reserved, appends
// extend the file, and crash recovery is the same.
func TestNoFallocateGrowsTheFile(t *testing.T) {
	preallocate = func(*os.File, int64, int64) error { return errors.ErrUnsupported }
	defer func() { preallocate = fallocate }()
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	for i := int64(0); i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := os.Stat(lastSegment(t, dir)); err != nil || info.Size() != l.off || !l.growOnly {
		t.Fatalf("file of %d record bytes: %v, %v (growOnly=%v)", l.off, info, err, l.growOnly)
	}
	l.CrashTorn()
	l2, rec := openFresh(t, dir, Config{})
	defer l2.Close()
	if len(rec.Records) != 3 || !rec.TornTail {
		t.Fatalf("recovered %d records, torn=%v; want 3 and the tear", len(rec.Records), rec.TornTail)
	}
}

func TestRepeatedTornCrashCycles(t *testing.T) {
	// Every cycle appends one durable record and tears the tail; each
	// recovery must replay everything committed so far, every time.
	dir := t.TempDir()
	for cycle := 0; cycle < 4; cycle++ {
		l, rec := openFresh(t, dir, Config{})
		if len(rec.Records) != cycle {
			t.Fatalf("cycle %d: recovered %d records, want %d", cycle, len(rec.Records), cycle)
		}
		if cycle > 0 && !rec.TornTail {
			t.Fatalf("cycle %d: torn tail not reported", cycle)
		}
		if _, err := l.Append(testRecord(int64(cycle))); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		l.CrashTorn()
	}
}

func TestAppendErrorPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openFresh(t, dir, Config{})
	if _, err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the descriptor so the next write fails the way a full
	// or dying disk would.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	if _, err := l.Append(testRecord(1)); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("append on a dead descriptor: err=%v, want a write error", err)
	}
	// The log must now be poisoned: a partial frame may sit at the
	// tail, and stacking acked records behind it would let replay
	// silently discard them.
	if _, err := l.Append(testRecord(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after write error: err=%v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after poison: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	// A record is synced on the commit path or not at all: there is no
	// background policy to ask for.
	for _, s := range []string{"interval", "sometimes"} {
		if _, err := ParseSyncPolicy(s); err == nil {
			t.Fatalf("ParseSyncPolicy(%q) accepted", s)
		}
	}
}

func TestOversizedFrameLengthIsCorrupt(t *testing.T) {
	// A frame claiming more than MaxRecordBytes must be typed
	// corruption in a non-final segment, tolerated at the active tail.
	b := make([]byte, frameHeaderSize)
	b[3] = 0xFF // length 0xFF000000 > 16MiB
	_, err := ReplayBytes(b, false, func(*Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-final oversized length: err=%v, want ErrCorrupt", err)
	}
	torn, err := ReplayBytes(b, true, func(*Record) error { return nil })
	if err != nil || !torn {
		t.Fatalf("final oversized length: torn=%v err=%v, want torn tear", torn, err)
	}
}
