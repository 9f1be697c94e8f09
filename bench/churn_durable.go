package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/wal"
)

// churn_durable sizes. Positions in the script are op counts, never
// times, so the sequence a seed produces is the same on every machine;
// an op is one admit or one release.
const (
	churnNodes           = 50
	churnLive            = 64   // sessions live throughout
	churnPool            = 4096 // window tasks, cycled
	churnReadEvery       = 16   // ops between Sessions+Stats reads
	churnRebaseEvery     = 500  // ops between link-down/link-up Rebase pairs
	churnCheckpointEvery = 2000 // ops between checkpoints
	churnTailRecords     = 1000 // records after the last checkpoint, exactly
	// churnCostOps admissions from the start of the window fix
	// cost_mean; today's commit admits several times as many.
	churnCostOps = 4096
)

var churnShapes = []shape{{2, 2}, {3, 2}}

// churnPlan is everything churn_durable derives from the seed.
type churnPlan struct {
	Ramp []nfv.Task `json:"ramp"` // fills the manager to churnLive before the window
	Pool []nfv.Task `json:"pool"` // window admissions, cycled
	// Tail runs after the window on an emptied manager: churnLive
	// admissions, a checkpoint, then admit+release cycles for exactly
	// churnTailRecords records, so every restore replays a known log.
	Tail []nfv.Task `json:"tail"`
}

// churnDurable drives a manager with a SyncAlways WAL from one
// goroutine, then crashes it and restores from disk.
type churnDurable struct {
	doc  []byte
	base *nfv.Network // pristine topology the fault state refers to
	fs   *faults.State
	flap [2]int // the link the Rebase pairs take down and up
	dir  string
	log  *wal.Log
	mgr  *dynamic.Manager
	plan *churnPlan
	live []dynamic.SessionID // oldest first

	want     map[dynamic.SessionID]string // pre-crash session set: id -> embedding JSON
	restored *dynamic.Manager             // the last restore, kept for the oracle
	relog    *wal.Log

	openMs, replayMs []float64
	replayed         int
}

func planChurn(net *nfv.Network, seed int64) (*churnPlan, error) {
	rng := newRand(seed)
	var p churnPlan
	var err error
	if p.Ramp, err = genTasks(net, rng, churnLive, churnShapes); err != nil {
		return nil, err
	}
	if p.Pool, err = genTasks(net, rng, churnPool, churnShapes); err != nil {
		return nil, err
	}
	if p.Tail, err = genTasks(net, rng, churnLive+churnTailRecords/2, churnShapes); err != nil {
		return nil, err
	}
	return &p, nil
}

// pickFlapLink chooses, from the topology seed, a link whose loss
// leaves the network connected.
func pickFlapLink(base *nfv.Network) ([2]int, error) {
	edges := base.Graph().Edges()
	fixed := newRand(topologySeed + 2)
	for _, i := range fixed.Perm(len(edges)) {
		st := faults.NewState(base)
		if err := st.Apply(faults.Event{Kind: faults.LinkDown, U: edges[i].U, V: edges[i].V}); err != nil {
			return [2]int{}, err
		}
		degraded, err := st.Materialize(base)
		if err != nil {
			return [2]int{}, err
		}
		if degraded.Graph().Connected() {
			return [2]int{edges[i].U, edges[i].V}, nil
		}
	}
	return [2]int{}, fmt.Errorf("no link can fail without partitioning the network")
}

func (w *churnDurable) setup(rc *runCtx) error {
	var err error
	if w.doc, w.base, err = freshNetwork(rc, netgen.PaperConfig(churnNodes, 2)); err != nil {
		return err
	}
	if w.flap, err = pickFlapLink(w.base); err != nil {
		return err
	}
	w.fs = faults.NewState(w.base)
	net, err := w.fs.Materialize(w.base)
	if err != nil {
		return err
	}
	if w.plan, err = planChurn(net, rc.seed); err != nil {
		return err
	}
	rc.planHash = planHash(w.plan)
	w.dir = filepath.Join(rc.tmp, fmt.Sprintf("wal-%d", rc.nextDir()))
	var rec *wal.Recovery
	if w.log, rec, err = wal.Open(w.dir, wal.Config{Policy: wal.SyncAlways}); err != nil {
		return err
	}
	if !rec.Empty() {
		return fmt.Errorf("wal dir %s not empty", w.dir)
	}
	w.mgr = dynamic.NewManager(net, core.Options{}).AttachWAL(w.log)
	for i, t := range w.plan.Ramp {
		s, err := w.mgr.AdmitCtx(context.Background(), t)
		if err != nil {
			return fmt.Errorf("ramp admit %d: %w", i, err)
		}
		w.live = append(w.live, s.ID)
	}
	return nil
}

func (w *churnDurable) close() error {
	if w.relog != nil {
		if err := w.relog.Close(); err != nil {
			return err
		}
		w.relog = nil
	}
	if w.log != nil {
		w.log.Crash() // idempotent; a closed descriptor either way
		w.log = nil
	}
	return nil
}

// rebase applies one fault event and moves the manager onto the
// network it implies.
func (w *churnDurable) rebase(kind faults.Kind) (time.Duration, error) {
	if err := w.fs.Apply(faults.Event{Kind: kind, U: w.flap[0], V: w.flap[1]}); err != nil {
		return 0, err
	}
	next, err := w.fs.Materialize(w.mgr.Network())
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	w.mgr.Rebase(next)
	return time.Since(t0), nil
}

// walProbe appends benchmark-built equivalents of the records the
// manager writes to two scratch logs on the same disk, one fsyncing
// per append and one not, so the traced run can put a WAL span under
// the admit and release spans it cannot see into.
type walProbe struct {
	sync, nosync     *wal.Log
	syncUs, nosyncUs []float64
}

func openWalProbe(dir string) (*walProbe, error) {
	s, _, err := wal.Open(filepath.Join(dir, "probe-sync"), wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	n, _, err := wal.Open(filepath.Join(dir, "probe-nosync"), wal.Config{Policy: wal.SyncNone})
	if err != nil {
		s.Close()
		return nil, err
	}
	return &walProbe{sync: s, nosync: n}, nil
}

func (p *walProbe) close() error {
	err := p.sync.Close()
	if nerr := p.nosync.Close(); err == nil {
		err = nerr
	}
	return err
}

// append writes rec to both logs and records the fsyncing append as a
// span under parent.
func (p *walProbe) append(tr *tracer, trace, parent int, rec wal.Record) error {
	a, b := rec, rec
	t0 := time.Now()
	if _, err := p.sync.Append(&a); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	t1 := time.Now()
	if _, err := p.nosync.Append(&b); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	t2 := time.Now()
	p.syncUs = append(p.syncUs, usOf(t1.Sub(t0)))
	p.nosyncUs = append(p.nosyncUs, usOf(t2.Sub(t1)))
	tr.record(trace, parent, "wal.append", t0, t1)
	return nil
}

func admitRecord(s *dynamic.Session) wal.Record {
	rec := wal.Record{Type: wal.RecAdmit, Session: int64(s.ID),
		Embedding: s.Result.Embedding, FinalCost: s.Result.FinalCost}
	for _, in := range s.Result.Embedding.NewInstances {
		rec.Uses = append(rec.Uses, [2]int{in.VNF, in.Node})
	}
	return rec
}

func (w *churnDurable) measure(rc *runCtx) error {
	ctx := context.Background()
	var admitMs timed
	var releaseUs, rebaseMs, checkpointMs, costs []float64
	var latUntraced, latTraced []float64
	var led ledger
	var probe *walProbe
	if rc.tr != nil {
		var err error
		if probe, err = openWalProbe(rc.tmp); err != nil {
			return err
		}
		defer probe.close()
	}
	untracedUntil := rc.untracedPrefix()
	stats0 := w.log.Stats()
	sl := rc.newSlices(rc.window)
	ops, admits := 0, 0
	for {
		slice, until, ok, err := sl.open()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sliceOps := 0
		for time.Now().Before(until) {
			task := w.plan.Pool[admits%len(w.plan.Pool)]
			sampled := rc.tr != nil && admits%replayEvery == 0
			traced := sampled && time.Now().After(untracedUntil)
			var snap *nfv.Network
			var c0, c1 time.Time
			if traced {
				c0 = time.Now()
				snap = w.mgr.CloneNetwork()
				c1 = time.Now()
			}
			t0 := time.Now()
			sess, err := w.mgr.AdmitCtx(ctx, task)
			t1 := time.Now()
			admits++
			ops++
			if !rc.count(err, "admit") {
				continue
			}
			d := usOf(t1.Sub(t0))
			admitMs.add(d/1000, slice)
			sliceOps++
			if len(costs) < churnCostOps {
				costs = append(costs, sess.Result.FinalCost)
			}
			w.live = append(w.live, sess.ID)
			if sampled {
				if traced {
					latTraced = append(latTraced, d)
				} else {
					latUntraced = append(latUntraced, d)
				}
			}

			oldest := w.live[0]
			w.live = w.live[1:]
			r0 := time.Now()
			err = w.mgr.Release(oldest)
			r1 := time.Now()
			ops++
			if rc.count(err, "release") {
				releaseUs = append(releaseUs, usOf(r1.Sub(r0)))
			}

			if traced {
				tid := rc.tr.newTrace()
				root := rc.tr.record(tid, 0, "dynamic.admit", t0, t1)
				rc.tr.record(tid, root, "nfv.clone", c0, c1)
				led.addClone(c1.Sub(c0))
				if _, err := led.replaySolve(rc.tr, tid, root, snap, task); err != nil {
					rc.fail("%v", err)
				}
				if err := probe.append(rc.tr, tid, root, admitRecord(sess)); err != nil {
					return err
				}
				rid := rc.tr.newTrace()
				rroot := rc.tr.record(rid, 0, "dynamic.release", r0, r1)
				if err := probe.append(rc.tr, rid, rroot, wal.Record{Type: wal.RecRelease, Session: int64(oldest)}); err != nil {
					return err
				}
			}

			if ops%churnReadEvery == 0 {
				if n := len(w.mgr.Sessions()); n != churnLive {
					rc.fail("read after op %d: %d live sessions, want %d", ops, n, churnLive)
				}
				_ = w.mgr.Stats()
			}
			if ops%churnRebaseEvery == 0 {
				for _, kind := range []faults.Kind{faults.LinkDown, faults.LinkUp} {
					d, err := w.rebase(kind)
					if err != nil {
						return err
					}
					rebaseMs = append(rebaseMs, msOf(d))
				}
			}
			if ops%churnCheckpointEvery == 0 {
				t0 := time.Now()
				if _, err := w.mgr.Checkpoint(); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
				checkpointMs = append(checkpointMs, msOf(time.Since(t0)))
			}
		}
		if err := sl.close(sliceOps); err != nil {
			return err
		}
	}
	stats1 := w.log.Stats()

	rc.report(sl, sl, &admitMs)
	rc.e2e["cost_mean"] = mean(costs)
	rc.samples["cost"] = len(costs)
	rc.samples["release"] = len(releaseUs)
	rc.samples["rebase"] = len(rebaseMs)
	rc.samples["checkpoint"] = len(checkpointMs)
	rc.ops = len(admitMs.v)
	if len(costs) < churnCostOps {
		fmt.Printf("note: only %d of %d admissions inside the window; cost_mean will not repeat exactly\n", len(costs), churnCostOps)
	}

	rc.layer["e2e.release_p50_ms"] = median(releaseUs) / 1000
	rc.layer["dynamic.admit_us"] = median(admitMs.v) * 1000
	rc.layer["dynamic.release_us"] = median(releaseUs)
	rc.layer["dynamic.rebase_ms"] = median(rebaseMs)
	rc.layer["dynamic.checkpoint_ms"] = median(checkpointMs)
	managerCounters(rc, w.mgr)
	if n := stats1.Appended - stats0.Appended; n > 0 {
		rc.layer["wal.syncs_per_commit"] = float64(stats1.Syncs-stats0.Syncs) / float64(n)
	}
	if rc.tr != nil {
		led.put(rc.layer)
		rc.layer["wal.append_sync_us"] = median(probe.syncUs)
		rc.layer["wal.append_nosync_us"] = median(probe.nosyncUs)
		commitSelf(rc.layer)
		rc.overhead(latUntraced, latTraced)
	}
	return w.tailAndCrash(rc, probe)
}

// tailAndCrash leaves a log of known length behind and kills the
// manager: everything live is released, the tail's first churnLive
// tasks are admitted, a checkpoint folds the history, and admit+release
// cycles append exactly churnTailRecords records. Because the manager
// was empty when the tail began, the tail's embeddings — and so the
// bytes on disk — depend on the seed alone, not on how many cycles the
// window fitted.
func (w *churnDurable) tailAndCrash(rc *runCtx, probe *walProbe) error {
	ctx := context.Background()
	for _, id := range w.live {
		if err := w.mgr.Release(id); err != nil {
			return fmt.Errorf("tail: release %d: %w", id, err)
		}
	}
	w.live = w.live[:0]
	if n := w.mgr.LiveInstances(); n != 0 {
		rc.fail("tail: %d dynamic instances live on an empty manager", n)
	}
	next := 0
	admit := func() error {
		s, err := w.mgr.AdmitCtx(ctx, w.plan.Tail[next])
		if err != nil {
			return fmt.Errorf("tail: admit %d: %w", next, err)
		}
		next++
		w.live = append(w.live, s.ID)
		return nil
	}
	for i := 0; i < churnLive; i++ {
		if err := admit(); err != nil {
			return err
		}
	}
	if _, err := w.mgr.Checkpoint(); err != nil {
		return fmt.Errorf("tail: checkpoint: %w", err)
	}
	base := w.log.Stats().Appended
	for w.log.Stats().Appended-base < churnTailRecords {
		if err := admit(); err != nil {
			return err
		}
		if err := w.mgr.Release(w.live[0]); err != nil {
			return fmt.Errorf("tail: release: %w", err)
		}
		w.live = w.live[1:]
	}
	if n := w.log.Stats().Appended - base; n != churnTailRecords {
		rc.fail("tail: %d records after the last checkpoint, want %d", n, churnTailRecords)
	}

	w.want = make(map[dynamic.SessionID]string)
	for _, s := range w.mgr.Sessions() {
		b, err := json.Marshal(s.Result.Embedding)
		if err != nil {
			return err
		}
		w.want[s.ID] = string(b)
	}
	w.log.Crash()

	// Segment names carry their zero-padded first sequence number and
	// ReadDir sorts by name, so the last segment is the one the final
	// checkpoint opened: it holds the tail's records and nothing else.
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	var bytesOnDisk int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			info, err := e.Info()
			if err != nil {
				return err
			}
			bytesOnDisk = info.Size()
		}
	}
	rc.layer["wal.bytes_per_record"] = float64(bytesOnDisk) / churnTailRecords

	if probe != nil {
		// The snapshot the crashed log holds, written again to the
		// scratch log: WriteSnapshot on its own, outside Checkpoint.
		copyDir := filepath.Join(rc.tmp, "snapshot-src")
		if err := copyTree(w.dir, copyDir); err != nil {
			return err
		}
		l, rec, err := wal.Open(copyDir, wal.Config{Policy: wal.SyncAlways})
		if err != nil {
			return err
		}
		l.Close()
		if rec.Snapshot == nil {
			rc.fail("tail: crashed log holds no snapshot")
			return nil
		}
		var ms []float64
		for i := 0; i < coldStartReps; i++ {
			snap := *rec.Snapshot
			t0 := time.Now()
			if err := probe.sync.WriteSnapshot(&snap); err != nil {
				return fmt.Errorf("wal probe: snapshot: %w", err)
			}
			t1 := time.Now()
			ms = append(ms, msOf(t1.Sub(t0)))
			rc.tr.record(rc.tr.newTrace(), 0, "probe.wal.snapshot", t0, t1)
		}
		rc.layer["wal.snapshot_ms"] = median(ms)
	}
	return nil
}

// coldStart is a restart after the crash: decode the network, open a
// copy of the crashed directory, restore. Each restore must replay the
// known tail without errors and hold exactly the pre-crash sessions.
func (w *churnDurable) coldStart(rc *runCtx) (time.Duration, error) {
	if w.relog != nil {
		if err := w.relog.Close(); err != nil {
			return 0, err
		}
		w.relog = nil
	}
	dir := filepath.Join(rc.tmp, fmt.Sprintf("restore-%d", rc.nextDir()))
	if err := copyTree(w.dir, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	net, err := decodeNetwork(w.doc)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	log, rec, err := wal.Open(dir, wal.Config{Policy: wal.SyncAlways})
	t2 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("reopen wal: %w", err)
	}
	mgr, rep, err := dynamic.Restore(net, log, rec, core.Options{})
	d := time.Since(t0)
	if err != nil {
		log.Close()
		return 0, fmt.Errorf("restore: %w", err)
	}
	w.restored, w.relog = mgr, log
	rc.tr.record(rc.tr.newTrace(), 0, "probe.wal.open", t1, t2)

	for _, e := range rep.Errors {
		rc.fail("restore: %s", e)
	}
	if rep.ReplayedRecords != churnTailRecords {
		rc.fail("restore replayed %d records, want %d", rep.ReplayedRecords, churnTailRecords)
	}
	got := mgr.Sessions()
	if len(got) != len(w.want) {
		rc.fail("restore holds %d sessions, the crashed manager held %d", len(got), len(w.want))
	}
	for _, s := range got {
		b, err := json.Marshal(s.Result.Embedding)
		if err != nil {
			return 0, err
		}
		if want, ok := w.want[s.ID]; !ok {
			rc.fail("restore: phantom session %d", s.ID)
		} else if !bytes.Equal(b, []byte(want)) {
			rc.fail("restore: session %d embedding differs from the pre-crash one", s.ID)
		}
	}
	w.openMs = append(w.openMs, msOf(t2.Sub(t1)))
	w.replayMs = append(w.replayMs, msOf(rep.ReplayDuration))
	w.replayed = rep.ReplayedRecords
	rc.layer["wal.open_ms"] = median(w.openMs)
	rc.layer["dynamic.restore_replay_ms"] = median(w.replayMs)
	rc.layer["dynamic.replayed_records"] = float64(w.replayed)
	return d, nil
}

// verify runs the oracle on the last restored manager: the crashed one
// can no longer log, and the restored state is the one that matters.
func (w *churnDurable) verify(rc *runCtx) error {
	if w.restored == nil {
		return fmt.Errorf("no restored manager to verify")
	}
	return liveOracle(rc, w.restored)
}

// copyTree copies the log directory into dst, which must not exist.
func copyTree(src, dst string) error { return os.CopyFS(dst, os.DirFS(src)) }
