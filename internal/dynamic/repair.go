package dynamic

import (
	"fmt"
	"slices"
	"sort"

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
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		sr := m.repairSession(m.sessions[id])
		if sr.Outcome == RepairIntact {
			continue
		}
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

// repairSession inspects one session against m.net and repairs it if a
// fault severed any of its walks. Callers hold m.mu.
func (m *Manager) repairSession(sess *Session) SessionRepair {
	sr := SessionRepair{ID: sess.ID, Outcome: RepairIntact}
	emb := sess.Result.Embedding
	if emb == nil || len(emb.Task.Destinations) == 0 {
		return sr // fully degraded earlier; nothing left to check
	}
	var severed, intact []int // indices into emb.Task.Destinations
	for di := range emb.Task.Destinations {
		if conformance.WalkBroken(m.net, emb, di) {
			severed = append(severed, di)
		} else {
			intact = append(intact, di)
		}
	}
	if len(severed) == 0 {
		return sr
	}
	for _, di := range severed {
		sr.Severed = append(sr.Severed, emb.Task.Destinations[di])
	}
	sr.CostBefore = sess.Result.FinalCost

	// Split severed destinations into recoverable and lost: a
	// destination with no route from the source cannot be served at
	// any price.
	met := m.net.Metric()
	src := emb.Task.Source
	var recoverable, lost []int // indices
	for _, di := range severed {
		if met.Dist[src][emb.Task.Destinations[di]] == graph.Inf {
			lost = append(lost, di)
		} else {
			recoverable = append(recoverable, di)
		}
	}

	// Patch: re-embed only the severed destinations that can still be
	// reached, keeping intact walks and every surviving instance (reused
	// at zero setup cost by the solver). If none can be reached, or the
	// patch fails, degrade: keep only the intact walks.
	if len(recoverable) == 0 || !m.tryPatch(sess, emb, intact, recoverable, lost, &sr) {
		m.degrade(sess, emb, intact, severed, &sr)
	}
	return sr
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

// tryPatch attempts the incremental repair: solve a sub-task covering
// only the recoverable destinations, merge its walks with the intact
// ones, price and validate the result, and install whatever new
// instances it needs. The merged embedding is priced *before*
// installation, so new instances carry their setup cost while surviving
// ones stay free. Returns true if the session was repaired (sr filled
// in).
func (m *Manager) tryPatch(sess *Session, emb *nfv.Embedding, intact, recoverable, lost []int, sr *SessionRepair) bool {
	sub := nfv.Task{
		Source:       emb.Task.Source,
		Destinations: destNodes(emb, recoverable),
		Chain:        append(nfv.SFC(nil), emb.Task.Chain...),
	}
	res, err := m.repairSolve(sess.ID, sub)
	if err != nil {
		sr.Err = fmt.Sprintf("patch: %v", err)
		return false
	}
	patchWalk := make(map[int]nfv.Walk, len(recoverable))
	for i, d := range sub.Destinations {
		patchWalk[d] = res.Embedding.Walks[i]
	}
	merged := mergeEmbedding(emb, func(di int) (nfv.Walk, bool) {
		if w, ok := patchWalk[emb.Task.Destinations[di]]; ok {
			return w, true
		}
		return emb.Walks[di], containsInt(intact, di)
	})
	fresh := res.Embedding.NewInstances
	served := merged.AppendServed(nil)
	merged.NewInstances = append(m.survivors(served, emb.NewInstances), fresh...)
	cost := m.net.Cost(merged).Total
	if err := conformance.CheckLive(m.net, merged); err != nil {
		sr.Err = fmt.Sprintf("validate: %v", err)
		return false
	}
	if err := m.install(fresh); err != nil {
		sr.Err = err.Error()
		return false
	}
	sr.Outcome = RepairPatched
	sr.Lost = destNodes(emb, lost)
	sr.CostAfter = cost
	sr.NewInstances = len(fresh)
	// The solver lists only instances its walks are served at, so the
	// fresh ones are among the served ones and the rest are reused.
	sr.ReusedInstances = len(served) - len(fresh)
	m.finishRepair(sess, merged, lost, sr)
	return true
}

// degrade keeps only the intact walks: the session serves what it
// still can and records everything else as lost.
func (m *Manager) degrade(sess *Session, emb *nfv.Embedding, intact, severed []int, sr *SessionRepair) {
	kept := mergeEmbedding(emb, func(di int) (nfv.Walk, bool) {
		return emb.Walks[di], containsInt(intact, di)
	})
	kept.NewInstances = m.survivors(kept.AppendServed(nil), emb.NewInstances)
	sr.Outcome = RepairDegraded
	sr.Lost = destNodes(emb, severed)
	sr.CostAfter = m.net.Cost(kept).Total
	m.finishRepair(sess, kept, severed, sr)
}

// finishRepair commits the repair, the way every other state change
// commits: the outcome is written as a repair record — the merged
// embedding, its price as computed before installation (fresh setup
// included, survivors free), its usage list (usesOf, as an admission
// derives it), the accumulated lost destinations and the degraded mark
// — the record is appended, apply swaps the session onto it and
// re-diffs the reference counts, and the instances that diff orphaned
// are undeployed. Replay lands on the repaired state from the record
// alone, without repairing again. sr carries the outcome and cost.
func (m *Manager) finishRepair(sess *Session, merged *nfv.Embedding, lostIdx []int, sr *SessionRepair) {
	lost := append(append([]int(nil), sess.Lost...), destNodes(sess.Result.Embedding, lostIdx)...)
	sort.Ints(lost)
	out := m.commitLagging(&wal.Record{
		Type:      wal.RecRepair,
		Session:   int64(sess.ID),
		Embedding: merged,
		FinalCost: sr.CostAfter,
		Uses:      m.usesOf(merged),
		Degraded:  sess.Degraded || len(lostIdx) > 0,
		Lost:      lost,
		Outcome:   string(sr.Outcome),
	})
	for _, key := range out.orphans {
		_ = m.net.Undeploy(key[0], key[1])
	}
}

// survivors lists the instances of old, in old's order, that are still
// deployed and still served: served is what the repaired embedding's
// walks are served at.
func (m *Manager) survivors(served [][2]int, old []nfv.Instance) []nfv.Instance {
	var out []nfv.Instance
	for _, inst := range old {
		if slices.Contains(served, [2]int{inst.VNF, inst.Node}) && m.net.IsDeployed(inst.VNF, inst.Node) {
			out = append(out, inst)
		}
	}
	return out
}

// mergeEmbedding rebuilds an embedding keeping the original destination
// order: pick returns the walk for index di and whether to keep it.
func mergeEmbedding(emb *nfv.Embedding, pick func(di int) (nfv.Walk, bool)) *nfv.Embedding {
	out := &nfv.Embedding{Task: nfv.Task{
		Source: emb.Task.Source,
		Chain:  append(nfv.SFC(nil), emb.Task.Chain...),
	}}
	for di, d := range emb.Task.Destinations {
		w, keep := pick(di)
		if !keep {
			continue
		}
		out.Task.Destinations = append(out.Task.Destinations, d)
		out.Walks = append(out.Walks, cloneWalk(w))
	}
	return out
}

func cloneWalk(w nfv.Walk) nfv.Walk {
	c := make(nfv.Walk, len(w))
	for i, s := range w {
		c[i] = nfv.Segment{Level: s.Level, Path: append([]int(nil), s.Path...)}
	}
	return c
}

func destNodes(emb *nfv.Embedding, idx []int) []int {
	out := make([]int, 0, len(idx))
	for _, di := range idx {
		out = append(out, emb.Task.Destinations[di])
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
