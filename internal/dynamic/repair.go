package dynamic

import (
	"fmt"
	"slices"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/wal"
)

// RepairOutcome classifies what Rebase did to one affected session.
type RepairOutcome string

const (
	// RepairIntact: no walk of the session touches a failed element.
	RepairIntact RepairOutcome = "intact"
	// RepairPatched: only the severed destinations were re-embedded;
	// intact subtrees and surviving instances were kept in place.
	RepairPatched RepairOutcome = "patched"
	// RepairDegraded: no patch was feasible; the session keeps serving
	// only the destinations its surviving walks still reach.
	RepairDegraded RepairOutcome = "degraded"
)

// SessionRepair reports what happened to one affected session.
type SessionRepair struct {
	ID      SessionID     `json:"id"`
	Outcome RepairOutcome `json:"outcome"`
	// Severed lists the destination nodes whose walks a fault cut.
	Severed []int `json:"severed,omitempty"`
	// Lost lists destinations dropped from service by this repair.
	Lost []int `json:"lost,omitempty"`
	// ReusedInstances counts surviving instances the repaired walks
	// lean on (zero setup paid again); NewInstances counts instances
	// the repair had to install.
	ReusedInstances int `json:"reused_instances"`
	NewInstances    int `json:"new_instances"`
	// CostBefore is the session's cost on record; CostAfter re-prices
	// the repaired embedding (links plus setup of freshly installed
	// instances — surviving ones are free).
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
	Err        string  `json:"error,omitempty"`
}

// RepairReport summarizes one Rebase pass over all live sessions.
type RepairReport struct {
	Checked  int `json:"checked"`
	Affected int `json:"affected"`
	Patched  int `json:"patched"`
	Degraded int `json:"degraded"`
	// PurgedInstances counts dynamic instances that died with the
	// fault (their references are dropped without undeploying).
	PurgedInstances int `json:"purged_instances"`
	// CostDelta sums CostAfter-CostBefore over affected sessions.
	CostDelta float64         `json:"cost_delta"`
	Sessions  []SessionRepair `json:"sessions,omitempty"`
}

// Rebase swaps the managed network for a degraded replacement (as
// materialized by faults.State after an event) and repairs every live
// session the fault touched. Repair is incremental: intact subtrees
// and surviving instances stay in place and only the severed
// destinations are re-embedded (the patch); if that fails the session
// is marked degraded and keeps serving only the destinations its
// surviving walks reach. A full re-solve would be no second chance: its
// task is the patch's plus the intact destinations, on the same network
// with the same chain, so any embedding it found, cut down to the
// severed destinations, is a patch. The new network must carry over the
// deployments of the old one (see faults.State.Materialize), minus
// whatever the fault killed.
func (m *Manager) Rebase(newNet *nfv.Network) *RepairReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.net = newNet
	// Drop the scaffold cache and the cached snapshot: the clone and the
	// overlays built against the old network are dead weight. In-flight
	// solves need nothing: settle commits one only if the new network is
	// in its snapshot's state, which a materialized network, a new
	// incarnation, never is.
	m.scaffolds.Purge()
	m.snap = nil
	// Warm the metric before repairing: every session repair below
	// prices against it, and a faults.State-materialized network may
	// satisfy this from its per-topology cache instead of a fresh APSP.
	newNet.Metric()
	rep := &RepairReport{Checked: len(m.sessions)}

	// References to instances that died with the fault are purged: they
	// are gone from the new network, so there is nothing to undeploy.
	// The rebase record lists them and apply drops them from the ledger
	// and from every usage list, ahead of the repair records that
	// depend on it.
	var purged [][2]int
	for key := range m.refs {
		if !m.net.IsDeployed(key[0], key[1]) {
			purged = append(purged, key)
		}
	}
	sortKeys(purged)
	rep.PurgedInstances = len(purged)
	m.commitLagging(&wal.Record{Type: wal.RecRebase, Purged: purged})
	ids := make([]SessionID, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	// Judge every session against the network as the fault left it,
	// before any repair changes it: a patch may reinstall a dead shared
	// instance at the same node, and a session judged after that would
	// read as intact while holding no reference to the instance.
	severed := make([][]bool, len(ids))
	for i, id := range ids {
		emb := m.sessions[id].Result.Embedding
		for di := range emb.Walks {
			if conformance.WalkBroken(m.net, emb, di) {
				if severed[i] == nil {
					severed[i] = make([]bool, len(emb.Walks))
				}
				severed[i][di] = true
			}
		}
	}
	for i, id := range ids {
		if severed[i] == nil {
			continue
		}
		sr := m.repair(m.sessions[id], severed[i])
		rep.Affected++
		switch sr.Outcome {
		case RepairPatched:
			rep.Patched++
		case RepairDegraded:
			rep.Degraded++
		}
		rep.CostDelta += sr.CostAfter - sr.CostBefore
		rep.Sessions = append(rep.Sessions, sr)
		if m.met != nil {
			m.met.repairAttempts.Inc()
			if sr.Outcome == RepairDegraded {
				m.met.repairFailures.Inc()
			}
			m.met.repairCostDelta.Observe(sr.CostAfter - sr.CostBefore)
		}
	}
	return rep
}

// repair mends one session whose walks severed marks as cut. A severed
// destination the source no longer reaches cannot be served at any
// price and is lost; the others are the patch's sub-task. If there are
// none, or the patch fails, the session degrades: the same rebuild with
// no new walks, serving only what its intact walks reach. Callers hold
// m.mu.
func (m *Manager) repair(sess *Session, severed []bool) SessionRepair {
	emb := sess.Result.Embedding
	sr := SessionRepair{ID: sess.ID, CostBefore: sess.Result.FinalCost}
	walks := slices.Clone(emb.Walks) // nil where a walk is cut
	sub := nfv.Task{Source: emb.Task.Source, Chain: append(nfv.SFC(nil), emb.Task.Chain...)}
	var reach []int // destination indices of sub.Destinations
	dist := m.net.Metric().Dist[sub.Source]
	for di, d := range emb.Task.Destinations {
		if !severed[di] {
			continue
		}
		walks[di] = nil
		sr.Severed = append(sr.Severed, d)
		if dist[d] == graph.Inf {
			sr.Lost = append(sr.Lost, d)
		} else {
			reach = append(reach, di)
			sub.Destinations = append(sub.Destinations, d)
		}
	}
	if len(reach) > 0 {
		err := m.patch(sess, sub, reach, walks, &sr)
		if err == nil {
			return sr
		}
		sr.Err = err.Error()
	}
	kept := m.rebuild(emb, walks, nil)
	sr.Outcome = RepairDegraded
	sr.Lost = sr.Severed
	sr.CostAfter = m.net.Cost(kept).Total
	m.commitRepair(sess, kept, &sr)
	return sr
}

// patch solves sub, puts its walks in the places reach names, and
// commits the result: priced before install, so fresh instances carry
// their setup cost while surviving ones stay free, then validated and
// installed. The solver reuses surviving instances at zero setup cost,
// so a patch gravitates toward the existing tree.
func (m *Manager) patch(sess *Session, sub nfv.Task, reach []int, walks []nfv.Walk, sr *SessionRepair) error {
	res, err := m.repairSolve(sess.ID, sub)
	if err != nil {
		return fmt.Errorf("patch: %v", err)
	}
	walks = slices.Clone(walks) // a failed patch leaves the degrade its walks
	for i, di := range reach {
		walks[di] = res.Embedding.Walks[i]
	}
	fresh := res.Embedding.NewInstances
	patched := m.rebuild(sess.Result.Embedding, walks, fresh)
	cost := m.net.Cost(patched).Total
	if err := conformance.CheckLive(m.net, patched); err != nil {
		return fmt.Errorf("validate: %v", err)
	}
	if err := m.install(fresh); err != nil {
		return err
	}
	sr.Outcome = RepairPatched
	sr.CostAfter = cost
	sr.NewInstances = len(fresh)
	// The solver lists only instances its walks are served at, so the
	// fresh ones are among the served ones and the rest are reused.
	sr.ReusedInstances = len(patched.AppendServed(nil)) - len(fresh)
	m.commitRepair(sess, patched, sr)
	return nil
}

// repairSolve runs the patch solve, recording a trace of the repaired
// session when the manager is tracing. Repairs run outside any HTTP
// request, so the trace carries no request ID. Callers hold m.mu.
func (m *Manager) repairSolve(id SessionID, task nfv.Task) (*core.Result, error) {
	opts := m.opts
	rec, finish := m.trace.StartTrace(obs.Trace{Op: "repair", Session: int(id)})
	if rec != nil {
		opts.Observer = obs.Tee(opts.Observer, rec)
	}
	res, err := core.Solve(m.net, task, opts)
	finish(res, err)
	return res, err
}

// rebuild is emb with walks[di] serving destination di, in emb's
// destination order; a nil walk drops its destination. Its new
// instances are those of emb that are still deployed and still served,
// in emb's order, then fresh.
func (m *Manager) rebuild(emb *nfv.Embedding, walks []nfv.Walk, fresh []nfv.Instance) *nfv.Embedding {
	out := &nfv.Embedding{Task: nfv.Task{Source: emb.Task.Source, Chain: append(nfv.SFC(nil), emb.Task.Chain...)}}
	for di, w := range walks {
		if w != nil {
			out.Task.Destinations = append(out.Task.Destinations, emb.Task.Destinations[di])
			out.Walks = append(out.Walks, cloneWalk(w))
		}
	}
	served := out.AppendServed(nil)
	for _, inst := range emb.NewInstances {
		if slices.Contains(served, [2]int{inst.VNF, inst.Node}) && m.net.IsDeployed(inst.VNF, inst.Node) {
			out.NewInstances = append(out.NewInstances, inst)
		}
	}
	out.NewInstances = append(out.NewInstances, fresh...)
	return out
}

// commitRepair commits a repair the way every other state change
// commits: the outcome is written as a repair record — the rebuilt
// embedding, its price as computed before installation, its usage list
// (usesOf, as an admission derives it), the session's lost
// destinations with the report's added and the degraded mark — the
// record is appended, apply swaps the session onto it and re-diffs the
// reference counts, and the instances that diff orphaned are
// undeployed. Replay lands on the repaired state from the record alone,
// without repairing again.
func (m *Manager) commitRepair(sess *Session, emb *nfv.Embedding, sr *SessionRepair) {
	lost := append(append([]int(nil), sess.Lost...), sr.Lost...)
	slices.Sort(lost)
	out := m.commitLagging(&wal.Record{
		Type:      wal.RecRepair,
		Session:   int64(sess.ID),
		Embedding: emb,
		FinalCost: sr.CostAfter,
		Uses:      m.usesOf(emb),
		Degraded:  sess.Degraded || len(sr.Lost) > 0,
		Lost:      lost,
		Outcome:   string(sr.Outcome),
	})
	for _, key := range out.orphans {
		_ = m.net.Undeploy(key[0], key[1])
	}
}

func cloneWalk(w nfv.Walk) nfv.Walk {
	c := make(nfv.Walk, len(w))
	for i, s := range w {
		c[i] = nfv.Segment{Level: s.Level, Path: append([]int(nil), s.Path...)}
	}
	return c
}
