package dynamic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/wal"
)

// shadowSeeds is how many seeded scripts TestShadowLedger runs.
const shadowSeeds = 200

// logTail reads a live log's records back out of its segment files as
// they are appended: each drain returns the records written since the
// previous one, decoded from the bytes the WAL's encoder put on disk.
// The log stays open and nothing is restored; the files are only read,
// and only past the cursor: the active segment is preallocated ≈1 MiB
// past its records, so the cursor reads frame by frame and stops at the
// first all-zero header, the end of the log, not at the file's length.
type logTail struct {
	dir     string
	segment string // segment the cursor is in ("" before the first drain)
	offset  int64  // bytes of it already returned
	seq     uint64 // sequence number of the last record returned
}

func (lt *logTail) drain(t *testing.T) []wal.Record {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(lt.dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names) // zero-padded sequence numbers: name order is log order
	var out []wal.Record
	for _, name := range names {
		if name < lt.segment {
			continue // folded into a snapshot and not pruned yet
		}
		if name > lt.segment {
			lt.segment, lt.offset = name, 0
		}
		out = lt.readFrames(t, name, out)
	}
	return out
}

// readFrames appends the records of segment name past the cursor to out.
func (lt *logTail) readFrames(t *testing.T, name string, out []wal.Record) []wal.Record {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for {
		var hdr [8]byte // payload length, CRC32C
		n, err := f.ReadAt(hdr[:], lt.offset)
		if err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if hdr == [8]byte{} {
			return out // the end of a cut-back segment, or the zero tail
		}
		if n < len(hdr) {
			t.Fatalf("reading back %s at byte %d: %d-byte header: %v", name, lt.offset, n, err)
		}
		frame := make([]byte, len(hdr)+int(binary.LittleEndian.Uint32(hdr[:4])))
		if _, err := f.ReadAt(frame, lt.offset); err != nil {
			t.Fatalf("reading back %s at byte %d: %v", name, lt.offset, err)
		}
		torn, err := wal.ReplayBytes(frame, true, func(r *wal.Record) error {
			if lt.seq != 0 && r.Seq != lt.seq+1 {
				return fmt.Errorf("sequence gap: %d after %d", r.Seq, lt.seq)
			}
			lt.seq = r.Seq
			out = append(out, *r)
			return nil
		})
		if err != nil || torn {
			t.Fatalf("reading back %s at byte %d: torn=%v err=%v", name, lt.offset, torn, err)
		}
		lt.offset += int64(len(frame))
	}
}

// shadowNet is a small substrate where sessions must share: few VNF
// types, few servers, little capacity.
func shadowNet(t *testing.T, rng *rand.Rand) *nfv.Network {
	t.Helper()
	net, err := netgen.Generate(netgen.Config{
		Nodes:          14,
		ServerFraction: 0.4,
		CapacityMin:    1,
		CapacityMax:    2,
		CatalogSize:    3,
		SetupCostMu:    2,
		Area:           100,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// runShadowScript drives one seeded script of admissions, releases,
// fault rebases and checkpoints against a WAL-backed manager. After
// every operation the records that operation appended are read back
// from the log and fed to a bare second manager — no network, no WAL,
// nothing but apply — and the two must agree on the whole ledger — and
// every live session that is not degraded must pass CheckLive.
// onRebase sees every fault's repair report right after the Rebase that
// produced it.
func runShadowScript(t *testing.T, seed int64, onRebase func(*Manager, *RepairReport)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := shadowNet(t, rng)
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Config{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	live := NewManager(base.Clone(), core.Options{}).AttachWAL(l)
	shadow := NewManager(nil, core.Options{})
	tail := &logTail{dir: dir}
	st := faults.NewState(base)
	edges := base.Graph().Edges()
	servers := base.Servers()

	for op := 0; op < 40; op++ {
		var what string
		switch r := rng.Intn(11); {
		case r < 4:
			task, err := netgen.GenerateTask(base, rng, 1+rng.Intn(3), 1+rng.Intn(2))
			if err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("admit %v", task)
			if _, err := live.Admit(task); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
			}
		case r < 6:
			sessions := live.Sessions()
			if len(sessions) == 0 {
				continue
			}
			id := sessions[rng.Intn(len(sessions))].ID
			what = fmt.Sprintf("release %d", id)
			if err := live.Release(id); err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
			}
		case r < 9:
			var ev faults.Event
			switch k := rng.Intn(6); {
			case k < 2:
				e := edges[rng.Intn(len(edges))]
				ev = faults.Event{Kind: faults.LinkDown, U: e.U, V: e.V}
			case k == 2:
				e := edges[rng.Intn(len(edges))]
				ev = faults.Event{Kind: faults.LinkUp, U: e.U, V: e.V}
			case k == 3:
				ev = faults.Event{Kind: faults.NodeDown, Node: servers[rng.Intn(len(servers))]}
			case k == 4:
				ev = faults.Event{Kind: faults.NodeUp, Node: servers[rng.Intn(len(servers))]}
			default:
				refs := live.Refs()
				keys := make([][2]int, 0, len(refs))
				for key := range refs {
					keys = append(keys, key)
				}
				if len(keys) == 0 {
					continue
				}
				sortKeys(keys)
				key := keys[rng.Intn(len(keys))]
				ev = faults.Event{Kind: faults.InstanceDown, VNF: key[0], Node: key[1]}
			}
			what = ev.String()
			if err := st.Apply(ev); err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
			}
			degraded, err := st.Materialize(live.CloneNetwork())
			if err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
			}
			onRebase(live, live.Rebase(degraded))
		default:
			what = "checkpoint"
			if _, err := live.Checkpoint(); err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
			}
		}

		recs := tail.drain(t)
		for i := range recs {
			if _, err := shadow.apply(&recs[i]); err != nil {
				t.Fatalf("seed %d op %d %s: shadow refused seq %d: %v", seed, op, what, recs[i].Seq, err)
			}
		}
		if got, want := stateFingerprint(t, shadow), stateFingerprint(t, live); got != want {
			t.Fatalf("seed %d op %d %s: shadow ledger diverged after %d records:\nshadow %s\n  live %s",
				seed, op, what, len(recs), got, want)
		}
		if err := live.VerifyRefs(); err != nil {
			t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
		}
		for _, sess := range live.Sessions() {
			if sess.Degraded {
				continue
			}
			if err := conformance.CheckLive(live.Network(), sess.Result.Embedding); err != nil {
				t.Fatalf("seed %d op %d %s: session %d: %v", seed, op, what, sess.ID, err)
			}
		}
	}
}

// TestShadowLedger is the by-construction claim made executable: the
// live ledger after any operation equals apply folded over the records
// that operation logged, as the WAL's encoder wrote them. The scripts
// must reach every repair outcome.
func TestShadowLedger(t *testing.T) {
	total := map[RepairOutcome]int{}
	for seed := int64(1); seed <= shadowSeeds; seed++ {
		runShadowScript(t, seed, func(_ *Manager, rr *RepairReport) {
			total[RepairIntact] += rr.Checked - rr.Affected
			for _, sr := range rr.Sessions {
				total[sr.Outcome]++
			}
		})
	}
	t.Logf("repair outcomes over %d seeds: %v", shadowSeeds, total)
	for _, outcome := range []RepairOutcome{RepairIntact, RepairPatched, RepairDegraded} {
		if total[outcome] == 0 {
			t.Errorf("no script reached the %q outcome: %v", outcome, total)
		}
	}
}

// TestRestoreParentWrittenLog pins the on-disk format: testdata holds a
// WAL directory written by the commit before apply existed — a snapshot
// of two sessions plus a tail with all four record types (admit,
// release, rebase, two repairs) — and the fingerprint of the manager
// that wrote it. Restoring a copy must land on that fingerprint. The
// files also carry the network version stamps the WAL no longer has
// (a snapshot's gen, epoch, incarnation and admit_retries, a rebase
// record's gen and epoch), so this is the restore of such a log too.
func TestRestoreParentWrittenLog(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/parent_wal/*")
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture: %v %v", files, err)
	}
	var all []byte
	for _, name := range files {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		all = append(all, blob...)
	}
	for _, key := range []string{`"gen":`, `"epoch":`, `"incarnation":`, `"admit_retries":`, `"type":"rebase","gen":`} {
		if !bytes.Contains(all, []byte(key)) {
			t.Fatalf("fixture: no retired stamp %s left to ignore", key)
		}
	}
	want, err := os.ReadFile("testdata/parent_wal.fingerprint")
	if err != nil {
		t.Fatal(err)
	}

	// The log ends after a 1-4 link cut on the repair fixture.
	st := faults.NewState(repairNet(t, 2))
	if err := st.Apply(faults.Event{Kind: faults.LinkDown, U: 1, V: 4}); err != nil {
		t.Fatal(err)
	}
	degraded, err := st.Materialize(repairNet(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, rep := mustRestore(t, dir, degraded) // fails on any RecoverReport.Errors
	if rep.SnapshotSeq != 2 || rep.ReplayedRecords != 5 {
		t.Fatalf("report: %+v", rep)
	}
	if got := stateFingerprint(t, m); got != strings.TrimSpace(string(want)) {
		t.Fatalf("restored state diverged from the parent's:\n got %s\nwant %s", got, want)
	}
}
