// Package wal makes the dynamic admission pipeline durable: an
// append-only, length-prefixed, CRC32C-checksummed log of admission
// lifecycle records (admit, release, rebase purge, repair outcome)
// plus periodic compacted snapshots of the full controller state
// (sessions, dynamic-instance refcounts, counters, network version).
//
// Layout on disk, inside one directory:
//
//	wal-<firstseq>.log   append-only record segments, rotated at
//	                     every snapshot
//	snap-<seq>.json      framed snapshot documents; <seq> is the last
//	                     record folded into the snapshot
//
// Every frame — log record and snapshot alike — is
//
//	[4B little-endian payload length][4B CRC32C(payload)][payload]
//
// with the payload a JSON document. Recovery loads the newest valid
// snapshot, then replays every record with a higher sequence number
// from the segments, in order. A torn final record (the crash left a
// partial frame at the tail of the active segment) is tolerated,
// reported, and truncated from disk — so the tear cannot sit in a
// non-final segment after the next rotation, where replay would have
// to treat it as corruption. Corruption anywhere else is a typed
// ErrCorrupt — never a panic, never silently wrong state.
//
// The active segment is preallocated: the log keeps it fallocated a
// chunk past its tail and writes each frame at the tail offset, so a
// commit moves no file size and its sync is the device flush alone.
// What lies past the tail reads as zeros, which adds one rule to the
// format: in the last segment an all-zero frame header ends the log
// (the writer never emits an empty payload). That is not a tear; like
// one, recovery cuts it off before a newer segment exists, and Close
// and WriteSnapshot trim it before the segment stops being the last,
// so a non-final segment never carries a zero tail.
//
// A record is synced on the commit path or not at all: SyncAlways
// syncs inside every Append (a committed admission survives SIGKILL
// and power loss the moment the client is acked), SyncNone leaves
// durability to the OS page cache. An open log starts no goroutine.
// Snapshots are always written to a temp file, fsynced, atomically
// renamed, and the directory fsynced, regardless of policy.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sftree/internal/nfv"
)

var (
	// ErrCorrupt reports a frame whose length, checksum, payload or
	// sequence numbering is invalid in a position where a torn write
	// cannot explain it. Replay stops at the corruption; everything
	// before it is a clean prefix.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed reports an append or snapshot on a closed (or crashed)
	// log.
	ErrClosed = errors.New("wal: log closed")
)

// MaxRecordBytes bounds one frame's payload so a corrupt length prefix
// cannot trigger an unbounded allocation during replay.
const MaxRecordBytes = 16 << 20

// frameHeaderSize is the fixed per-frame overhead: 4 bytes payload
// length + 4 bytes CRC32C.
const frameHeaderSize = 8

// reserveChunk is how far past the frame being written a reservation
// extends the active segment: one size-changing sync per chunk of
// records instead of one per record, and at most this much disk held
// past the tail of an open log.
const reserveChunk = 1 << 20

// preallocate is fallocate; a variable so a test can hand Append a
// full disk.
var preallocate = fallocate

// castagnoli is the CRC32C table (the polynomial used by iSCSI, ext4
// and most storage WALs; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record is durable before
	// Append returns.
	SyncAlways SyncPolicy = iota
	// SyncNone flushes to the OS on every append but never fsyncs
	// explicitly; a process kill loses nothing, an OS crash may.
	SyncNone
)

// ParseSyncPolicy maps the flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or none)", s)
}

// RecordType tags one lifecycle record.
type RecordType string

// The admission lifecycle record types.
const (
	// RecAdmit commits one session: the validated embedding, its cost
	// of record and the full (vnf, node) usage list.
	RecAdmit RecordType = "admit"
	// RecRelease tears one session down; the replayer re-derives the
	// refcount decrements from the session's recorded usage list.
	RecRelease RecordType = "release"
	// RecRebase marks a substrate swap: the purged (dead) instance
	// references and the new network version.
	RecRebase RecordType = "rebase"
	// RecRepair captures one session's post-repair state: outcome
	// rung, replacement embedding, new cost, degraded/lost markers and
	// the re-derived usage list.
	RecRepair RecordType = "repair"
)

// Record is one admission lifecycle entry. Which fields are meaningful
// depends on Type; unused ones stay at their zero values and are
// omitted from the JSON payload.
type Record struct {
	Seq  uint64     `json:"seq"`
	Type RecordType `json:"type"`
	// Session identifies the affected session (admit, release, repair).
	Session int64 `json:"session,omitempty"`
	// Embedding is the session's full embedding after the operation
	// (admit, repair); it carries the task, walks and new instances.
	Embedding *nfv.Embedding `json:"embedding,omitempty"`
	// FinalCost is the session's cost of record after the operation.
	FinalCost float64 `json:"final_cost,omitempty"`
	// Uses is the session's full dynamic-instance usage list after the
	// operation: the refcount state machine replays from it.
	Uses [][2]int `json:"uses,omitempty"`
	// Degraded and Lost carry the partial-service markers (repair).
	Degraded bool  `json:"degraded,omitempty"`
	Lost     []int `json:"lost,omitempty"`
	// Outcome is the repair-ladder rung ("patched", "reembedded",
	// "degraded") for repair records.
	Outcome string `json:"outcome,omitempty"`
	// Purged lists the instance references a rebase dropped because
	// the fault killed them (rebase).
	Purged [][2]int `json:"purged,omitempty"`
	// Gen and Epoch stamp the network version after a rebase.
	Gen   uint64 `json:"gen,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// SessionState is one live session inside a snapshot.
type SessionState struct {
	ID        int64          `json:"id"`
	Embedding *nfv.Embedding `json:"embedding"`
	FinalCost float64        `json:"final_cost"`
	Degraded  bool           `json:"degraded,omitempty"`
	Lost      []int          `json:"lost,omitempty"`
	Uses      [][2]int       `json:"uses,omitempty"`
}

// RefCount is one dynamic-instance refcount ledger entry.
type RefCount struct {
	VNF   int `json:"vnf"`
	Node  int `json:"node"`
	Count int `json:"count"`
}

// Counters are the manager's monotonic accounting, folded into
// snapshots so a restore resumes the history, not just the state.
type Counters struct {
	Admitted        int     `json:"admitted"`
	Rejected        int     `json:"rejected"`
	AdmittedCost    float64 `json:"admitted_cost"`
	CommitConflicts int     `json:"commit_conflicts"`
	// AdmitRetries repeats CommitConflicts (each conflict forces one
	// rerun); a restore reads CommitConflicts.
	AdmitRetries        int `json:"admit_retries"`
	SerializedFallbacks int `json:"serialized_fallbacks"`
}

// Snapshot is one compacted controller state: everything a restore
// needs without replaying history before Seq.
type Snapshot struct {
	Schema   string         `json:"schema"`
	Seq      uint64         `json:"seq"` // last record folded in
	NextID   int64          `json:"next_id"`
	Sessions []SessionState `json:"sessions"`
	Refs     []RefCount     `json:"refs"`
	Counters Counters       `json:"counters"`
	// Gen, Epoch and Incarnation version the network the snapshot was
	// taken against; a restore onto a different topology is detected
	// by conformance checks, not by these, but they make drift visible.
	Gen         uint64    `json:"gen"`
	Epoch       uint64    `json:"epoch"`
	Incarnation uint64    `json:"incarnation"`
	WrittenAt   time.Time `json:"written_at"`
}

// snapshotSchema versions the snapshot document.
const snapshotSchema = "sftwal/v1"

// keepSnapshots bounds retained snapshot files: the newest is the
// restore source, the previous one the fallback if the newest turns
// out corrupt.
const keepSnapshots = 2

// Config parameterizes an opened log.
type Config struct {
	// Policy selects the fsync discipline; the zero value is
	// SyncAlways (the safe default).
	Policy SyncPolicy
}

// Recovery is what Open found on disk: the newest valid snapshot (nil
// on a fresh directory) and every record appended after it, in order.
type Recovery struct {
	Snapshot *Snapshot
	Records  []Record
	// TornTail reports that the active segment ended in a partial or
	// checksum-failing frame — the signature of a crash mid-append.
	// The torn record was discarded; everything before it replayed.
	TornTail bool
}

// Empty reports a fresh directory: nothing to restore.
func (r *Recovery) Empty() bool {
	return r == nil || (r.Snapshot == nil && len(r.Records) == 0)
}

// LogStats counts a log's activity since Open.
type LogStats struct {
	Appended  uint64 `json:"appended"`
	Syncs     uint64 `json:"syncs"`
	Snapshots uint64 `json:"snapshots"`
}

// Log is an open write-ahead log. Append and WriteSnapshot must be
// externally serialized (the dynamic manager calls both under its
// commit mutex); Close and Crash may race with them safely.
type Log struct {
	dir string
	cfg Config

	mu       sync.Mutex
	f        *os.File
	off      int64  // tail of the active segment: where the next frame goes
	reserved int64  // end of the active segment's preallocated region
	growOnly bool   // the filesystem refuses fallocate: appends grow the file
	buf      []byte // frame staging buffer, reused across appends
	nextSeq  uint64
	closed   bool
	stats    LogStats
}

// Open opens (creating if necessary) the log directory, recovers the
// state on disk, and starts a fresh active segment after it. The
// returned Recovery holds the newest valid snapshot plus the replay
// tail; pass it to dynamic.Restore to rehydrate a manager.
func Open(dir string, cfg Config) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	rec, nextSeq, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, cfg: cfg, nextSeq: nextSeq}
	if err := l.openSegmentLocked(nextSeq); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// segmentName returns the file name of the segment whose first record
// carries seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%020d.log", seq) }

// snapshotName returns the file name of the snapshot folding records
// up to and including seq.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%020d.json", seq) }

// parseSeq extracts the sequence number from a segment or snapshot
// file name; ok is false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// openSegmentLocked creates the active segment starting at seq; the
// tail is the end of the file (recovery has already cut a same-named
// leftover back to its last frame).
func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.off, l.reserved = f, end, end
	return nil
}

// reserveLocked makes sure the next n bytes at the tail lie inside the
// preallocated region, extending it one chunk past them when they do
// not. It writes nothing: a full disk is refused here, before any byte
// of the frame exists. On a filesystem without fallocate it does
// nothing, for good.
func (l *Log) reserveLocked(n int) error {
	end := l.off + int64(n)
	if l.growOnly || end <= l.reserved {
		return nil
	}
	err := preallocate(l.f, l.off, end+reserveChunk-l.off)
	if errors.Is(err, errors.ErrUnsupported) {
		l.growOnly = true
		return nil
	}
	if err != nil {
		return err
	}
	l.reserved = end + reserveChunk
	return nil
}

// trimLocked cuts the preallocated region past the tail off the active
// segment and fsyncs it, new size included. It runs before the segment
// can stop being the last one.
func (l *Log) trimLocked() error {
	if l.reserved > l.off {
		if err := l.f.Truncate(l.off); err != nil {
			return err
		}
		l.reserved = l.off
	}
	return l.f.Sync()
}

// frame appends one framed payload to dst and returns the result.
func frame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Append assigns the record its sequence number, frames it, writes it
// at the tail of the active segment and applies the sync policy. It
// returns the assigned sequence number. The record is durable on
// return under SyncAlways. A reservation the disk refuses fails the
// append with nothing written and the log still open.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec.Seq = l.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("wal: encode record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
	}
	l.buf = frame(l.buf[:0], payload)
	if err := l.reserveLocked(len(l.buf)); err != nil {
		return 0, fmt.Errorf("wal: reserve: %w", err)
	}
	if _, err := l.f.WriteAt(l.buf, l.off); err != nil {
		// A short write (dead disk) may have left a partial
		// frame in the active segment. Accepting further appends would
		// stack acked records behind the tear, and replay — which stops
		// at the first torn frame — would silently discard them all.
		l.poisonLocked()
		return 0, fmt.Errorf("wal: append: %w (log poisoned)", err)
	}
	l.off += int64(len(l.buf))
	if l.cfg.Policy == SyncAlways {
		if err := datasync(l.f); err != nil {
			l.poisonLocked()
			return 0, fmt.Errorf("wal: sync: %w (log poisoned)", err)
		}
		l.stats.Syncs++
	}
	l.nextSeq++
	l.stats.Appended++
	return rec.Seq, nil
}

// poisonLocked marks the log permanently failed after a write or
// fsync error of unknown extent: the on-disk tail may hold a partial
// frame, and after a failed fsync the kernel may have dropped dirty
// pages while clearing the error, so a later "successful" fsync would
// lie. Every subsequent Append fails with ErrClosed — disk and memory
// part ways loudly, never silently. Callers hold l.mu.
func (l *Log) poisonLocked() {
	l.closed = true
	l.f.Close()
}

// Stats returns the log's activity counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// WriteSnapshot persists a compacted state document folding every
// record appended so far, rotates the active segment, and prunes
// segments and snapshots made obsolete. The snapshot write is atomic:
// temp file, fsync, rename, directory fsync. Callers serialize it
// with Append (the manager holds its mutex across both).
func (l *Log) WriteSnapshot(s *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	s.Schema = snapshotSchema
	if l.nextSeq > 0 {
		s.Seq = l.nextSeq - 1
	}
	s.WrittenAt = time.Now().UTC()
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}

	// 1. Make the active segment durable: the snapshot claims to fold
	// every record up to Seq, so those records must not be lost to a
	// crash that survives the rename below. The segment is about to
	// stop being the last one, so its zero tail goes first.
	if err := l.trimLocked(); err != nil {
		l.poisonLocked()
		return fmt.Errorf("wal: fsync before snapshot: %w (log poisoned)", err)
	}
	l.stats.Syncs++

	// 2. Atomic snapshot write.
	final := filepath.Join(l.dir, snapshotName(s.Seq))
	tmp := final + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	if _, err := tf.Write(frame(nil, payload)); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// 3. Rotate: further appends go to a fresh segment starting past
	// the snapshot, so the old one becomes prunable.
	old := l.f
	if err := l.openSegmentLocked(l.nextSeq); err != nil {
		return err // keep appending to the old segment; never lose the log
	}
	old.Close()
	l.stats.Snapshots++

	// 4. Prune. Best-effort: leftover files only cost replay time.
	l.pruneLocked(s.Seq)
	return nil
}

// pruneLocked removes snapshots beyond the retention count, then
// segments fully folded into the *oldest retained* snapshot — not the
// newest: if the newest snapshot turns out corrupt, recovery falls
// back to the previous one and must still find the records between
// the two on disk.
func (l *Log) pruneLocked(snapSeq uint64) {
	segs, snaps, _ := scanDir(l.dir)
	if extra := len(snaps) - keepSnapshots; extra > 0 {
		for _, sn := range snaps[:extra] {
			os.Remove(filepath.Join(l.dir, sn.name))
		}
		snaps = snaps[extra:]
	}
	horizon := snapSeq
	if len(snaps) > 0 && snaps[0].seq < horizon {
		horizon = snaps[0].seq
	}
	// A segment is prunable when its successor starts at or before
	// horizon+1: every record it can contain is then <= horizon, i.e.
	// folded into even the oldest snapshot recovery could fall back to.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= horizon+1 {
			os.Remove(filepath.Join(l.dir, segs[i].name))
		}
	}
}

// Close trims the active segment to its records, fsyncs and closes
// the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.trimLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a SIGKILL for tests: the file descriptor is closed
// without flushing or fsyncing, so anything the OS did not already
// accept is lost, and every later Append fails with ErrClosed. It
// never writes.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		l.f.Close()
	}
}

// CrashTorn simulates a SIGKILL that caught an append mid-write: a
// partial frame — a header promising more payload bytes than actually
// follow — is left at the tail of the active segment, then the
// descriptor is closed without fsync and every later Append fails
// with ErrClosed. The torn record was never acked to any caller, so
// recovery must discard the tear (and truncate it from disk) without
// losing anything committed before it. The crash-injection harness
// uses it to exercise torn-write recovery end-to-end, including
// repeated crash/restart cycles.
func (l *Log) CrashTorn() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		payload, _ := json.Marshal(&Record{Seq: l.nextSeq, Type: "torn-by-crash-injection"})
		l.buf = frame(l.buf[:0], payload)
		l.f.WriteAt(l.buf[:len(l.buf)-len(payload)/2], l.off) // best-effort: the fd dies either way
		l.f.Close()
	}
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// dirEntry pairs a wal file name with its parsed sequence number.
type dirEntry struct {
	name string
	seq  uint64
}

// scanDir lists segments and snapshots in ascending seq order.
func scanDir(dir string) (segs, snaps []dirEntry, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, dirEntry{e.Name(), seq})
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".json"); ok {
			snaps = append(snaps, dirEntry{e.Name(), seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return segs, snaps, nil
}

// recoverDir loads the newest valid snapshot and replays the record
// tail. It returns the recovery plus the next sequence number to
// assign.
func recoverDir(dir string) (*Recovery, uint64, error) {
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, 0, err
	}
	rec := &Recovery{}

	// Newest valid snapshot wins; a corrupt one falls back to the next.
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := loadSnapshot(filepath.Join(dir, snaps[i].name))
		if err != nil {
			continue // fall back to the previous retained snapshot
		}
		rec.Snapshot = snap
		break
	}
	var snapSeq uint64
	var haveSnap bool
	if rec.Snapshot != nil {
		snapSeq, haveSnap = rec.Snapshot.Seq, true
	}

	// Sequence numbers start at 1, so a snapshot taken before any record
	// carries Seq 0 and can never mask a real record (none is <= 0).
	nextSeq := uint64(1)
	if haveSnap {
		nextSeq = snapSeq + 1
	}
	for i, seg := range segs {
		// Skip segments fully folded into the snapshot.
		if haveSnap && i+1 < len(segs) && segs[i+1].seq <= snapSeq+1 {
			continue
		}
		last := i == len(segs)-1
		path := filepath.Join(dir, seg.name)
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: segment %s: %w", seg.name, err)
		}
		valid, torn, err := replayBytes(blob, last, func(r *Record) error {
			if haveSnap && r.Seq <= snapSeq {
				return nil // already folded into the snapshot
			}
			if r.Seq != nextSeq {
				return fmt.Errorf("%w: sequence gap: got %d, want %d", ErrCorrupt, r.Seq, nextSeq)
			}
			rec.Records = append(rec.Records, *r)
			nextSeq = r.Seq + 1
			return nil
		})
		if err != nil {
			return nil, 0, fmt.Errorf("wal: segment %s: %w", seg.name, err)
		}
		rec.TornTail = rec.TornTail || torn
		if valid < len(blob) {
			// Remove the tolerated tail — a tear, or the zeros of a
			// crashed log's preallocation — from disk, durably. Without
			// this it would sit in a non-final segment once Open rotates
			// to a fresh one, and the NEXT recovery (before a snapshot
			// folds this segment away) would have to treat it as
			// ErrCorrupt — refusing to start with all committed records
			// stranded behind it.
			if terr := truncateTail(path, int64(valid)); terr != nil {
				return nil, 0, fmt.Errorf("wal: truncate tail of %s: %w", seg.name, terr)
			}
		}
	}
	return rec, nextSeq, nil
}

// truncateTail cuts a segment back to its last valid frame boundary
// and makes the cut durable.
func truncateTail(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// loadSnapshot reads and validates one framed snapshot document.
func loadSnapshot(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, rest, err := readFrame(blob)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: snapshot %s: %d trailing bytes", ErrCorrupt, filepath.Base(path), len(rest))
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if snap.Schema != snapshotSchema {
		return nil, fmt.Errorf("%w: snapshot %s: schema %q", ErrCorrupt, filepath.Base(path), snap.Schema)
	}
	return &snap, nil
}

// errTorn marks an incomplete or checksum-failing frame; only
// tolerated at the very tail of the last segment.
var errTorn = errors.New("wal: torn frame")

// readFrame decodes one frame from b, returning the payload and the
// remaining bytes. It returns errTorn when b ends mid-frame or the
// checksum fails (indistinguishable from a torn write without more
// context), and ErrCorrupt for structurally impossible lengths.
func readFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeaderSize {
		return nil, nil, errTorn
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length > MaxRecordBytes {
		return nil, nil, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrCorrupt, length, MaxRecordBytes)
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	body := b[frameHeaderSize:]
	if uint32(len(body)) < length {
		return nil, nil, errTorn
	}
	payload = body[:length]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, nil, errTorn
	}
	return payload, body[length:], nil
}

// ReplayBytes scans one segment image from memory, invoking fn per
// decoded record. It reports whether the scan ended in a tolerated
// torn tail (lastSegment true) and returns ErrCorrupt-wrapped errors
// for everything a torn write cannot explain. In the last segment an
// all-zero frame header is the end of the log, not a tear. The fuzz
// target drives it directly.
func ReplayBytes(b []byte, lastSegment bool, fn func(*Record) error) (torn bool, err error) {
	_, torn, err = replayBytes(b, lastSegment, fn)
	return torn, err
}

// replayBytes is ReplayBytes plus the length of the valid prefix in
// bytes — the boundary recovery truncates the last segment back to
// when a tear or a zero tail follows it.
func replayBytes(b []byte, lastSegment bool, fn func(*Record) error) (validLen int, torn bool, err error) {
	total := len(b)
	var prevSeq uint64
	var havePrev bool
	for len(b) > 0 {
		valid := total - len(b)
		if lastSegment && zeroHeader(b) {
			return valid, false, nil // preallocated, never written: the log ends here
		}
		payload, rest, err := readFrame(b)
		if err != nil {
			if errors.Is(err, errTorn) {
				if lastSegment {
					return valid, true, nil // crash mid-append: discard the tail
				}
				return valid, false, fmt.Errorf("%w: torn frame in non-final segment", ErrCorrupt)
			}
			if lastSegment && errors.Is(err, ErrCorrupt) {
				// A corrupt length at the tail of the active segment is a
				// torn write too (the length bytes never fully landed).
				return valid, true, nil
			}
			return valid, false, err
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The checksum matched but the payload is not a record: the
			// writer never produces this, so it is corruption, not a tear.
			return valid, false, fmt.Errorf("%w: undecodable payload: %v", ErrCorrupt, err)
		}
		if havePrev && rec.Seq != prevSeq+1 {
			return valid, false, fmt.Errorf("%w: sequence gap: %d after %d", ErrCorrupt, rec.Seq, prevSeq)
		}
		prevSeq, havePrev = rec.Seq, true
		if err := fn(&rec); err != nil {
			return valid, false, err
		}
		b = rest
	}
	return total, false, nil
}

// zeroHeader reports whether b opens with an all-zero frame header,
// or is what is left of one at the very end of the allocation. No
// frame starts that way: a payload is never empty, so its length
// field is never zero.
func zeroHeader(b []byte) bool {
	for _, c := range b[:min(len(b), frameHeaderSize)] {
		if c != 0 {
			return false
		}
	}
	return true
}
