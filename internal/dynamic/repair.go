package dynamic

import (
	"fmt"
	"sort"
	"time"

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
	// RepairReembedded: the incremental patch failed, so the whole
	// session was re-solved against the degraded network.
	RepairReembedded RepairOutcome = "reembedded"
	// RepairDegraded: no repair was feasible; the session keeps serving
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
	Reembeds int `json:"reembeds"`
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
// session the fault touched. Repair is incremental where possible:
// intact subtrees and surviving instances stay in place and only the
// severed destinations are re-embedded; if that fails the session is
// fully re-solved; if that fails too it is marked degraded and keeps
// serving only the destinations its surviving walks reach. The new
// network must carry over the deployments of the old one (see
// faults.State.Materialize), minus whatever the fault killed.
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
		case RepairReembedded:
			rep.Reembeds++
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
	costBefore := sess.Result.FinalCost
	sr.CostBefore = costBefore

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

	// Nothing to re-embed: every severed destination is physically
	// unreachable. Keep the intact walks and drop the lost ones —
	// re-solving could not serve them at any price.
	if len(recoverable) == 0 {
		m.degrade(sess, emb, intact, severed, &sr)
		return sr
	}
	// First rung: patch — re-embed only the severed destinations,
	// keeping intact walks and every surviving instance (reused at
	// zero setup cost by the solver).
	if done := m.tryPatch(sess, emb, intact, recoverable, lost, &sr); done {
		return sr
	}
	// Second rung: full re-embed of every still-reachable destination.
	reachable := make([]int, 0, len(intact)+len(recoverable))
	reachable = append(reachable, intact...)
	reachable = append(reachable, recoverable...)
	sort.Ints(reachable)
	if done := m.tryReembed(sess, emb, reachable, lost, &sr); done {
		return sr
	}
	// Last rung: degrade — keep only the intact walks.
	m.degrade(sess, emb, intact, severed, &sr)
	return sr
}

// repairSolve runs one repair-ladder solve, recording a trace tagged
// with the rung ("patch", "reembed") and the repaired session when the
// manager is tracing. Repairs run outside any HTTP request, so the
// trace carries no request ID. Callers hold m.mu.
func (m *Manager) repairSolve(rung string, id SessionID, task nfv.Task) (*core.Result, error) {
	opts := m.opts
	if m.trace == nil {
		return core.Solve(m.net, task, opts)
	}
	rec := obs.AcquireRecorder()
	opts.Observer = obs.Tee(opts.Observer, rec)
	start := time.Now()
	res, err := core.Solve(m.net, task, opts)
	t := obs.Trace{
		Op:         "repair",
		Rung:       rung,
		Session:    int(id),
		Start:      start,
		DurationNs: time.Since(start).Nanoseconds(),
	}
	if res != nil {
		t.EarlyStop = res.EarlyStop
	}
	if err != nil {
		t.Err = err.Error()
	}
	m.trace.Record(t, rec)
	rec.Release()
	return res, err
}

// tryPatch attempts the incremental repair: solve a sub-task covering
// only the recoverable destinations, merge its walks with the intact
// ones, and install whatever new instances it needs. Returns true if
// the session was repaired (sr filled in).
func (m *Manager) tryPatch(sess *Session, emb *nfv.Embedding, intact, recoverable, lost []int, sr *SessionRepair) bool {
	sub := nfv.Task{
		Source:       emb.Task.Source,
		Destinations: destNodes(emb, recoverable),
		Chain:        append(nfv.SFC(nil), emb.Task.Chain...),
	}
	res, err := m.repairSolve("patch", sess.ID, sub)
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
	merged.NewInstances = m.keptInstances(merged, emb.NewInstances, res.Embedding.NewInstances)
	if !m.commitRepair(sess, merged, res.Embedding.NewInstances, sr) {
		return false
	}
	sr.Outcome = RepairPatched
	sr.Lost = destNodes(emb, lost)
	sr.ReusedInstances = m.countReused(merged, res.Embedding.NewInstances)
	m.finishRepair(sess, merged, lost, sr)
	return true
}

// tryReembed re-solves the whole session (reachable destinations only)
// against the degraded network. Returns true on success.
func (m *Manager) tryReembed(sess *Session, emb *nfv.Embedding, reachable, lost []int, sr *SessionRepair) bool {
	full := nfv.Task{
		Source:       emb.Task.Source,
		Destinations: destNodes(emb, reachable),
		Chain:        append(nfv.SFC(nil), emb.Task.Chain...),
	}
	res, err := m.repairSolve("reembed", sess.ID, full)
	if err != nil {
		if sr.Err != "" {
			sr.Err += "; "
		}
		sr.Err += fmt.Sprintf("reembed: %v", err)
		return false
	}
	merged := res.Embedding.Clone()
	merged.NewInstances = m.keptInstances(merged, nil, res.Embedding.NewInstances)
	if !m.commitRepair(sess, merged, res.Embedding.NewInstances, sr) {
		return false
	}
	sr.Outcome = RepairReembedded
	sr.Lost = destNodes(emb, lost)
	sr.ReusedInstances = m.countReused(merged, res.Embedding.NewInstances)
	m.finishRepair(sess, merged, lost, sr)
	return true
}

// degrade keeps only the intact walks: the session serves what it
// still can and records everything else as lost.
func (m *Manager) degrade(sess *Session, emb *nfv.Embedding, intact, severed []int, sr *SessionRepair) {
	kept := mergeEmbedding(emb, func(di int) (nfv.Walk, bool) {
		return emb.Walks[di], containsInt(intact, di)
	})
	kept.NewInstances = m.keptInstances(kept, emb.NewInstances, nil)
	sr.Outcome = RepairDegraded
	sr.Lost = destNodes(emb, severed)
	sr.CostAfter = m.net.Cost(kept).Total
	sr.NewInstances = 0
	m.finishRepair(sess, kept, severed, sr)
}

// commitRepair prices and validates the candidate embedding, then
// installs its fresh instances. The candidate is priced *before*
// installation so new instances carry their setup cost while surviving
// ones stay free. On any failure the installs are rolled back and the
// caller falls through to the next repair rung.
func (m *Manager) commitRepair(sess *Session, merged *nfv.Embedding, fresh []nfv.Instance, sr *SessionRepair) bool {
	cost := m.net.Cost(merged).Total
	if err := conformance.CheckLive(m.net, merged); err != nil {
		sr.Err = fmt.Sprintf("validate: %v", err)
		return false
	}
	for i, inst := range fresh {
		if err := m.net.Deploy(inst.VNF, inst.Node); err != nil {
			m.undeploy(fresh[:i])
			sr.Err = fmt.Sprintf("install: %v", err)
			return false
		}
	}
	sr.CostAfter = cost
	sr.NewInstances = len(fresh)
	return true
}

// finishRepair commits the rung that succeeded, the way every other
// state change commits: the outcome is written as a repair record — the
// merged embedding, its price as computed before installation (fresh
// setup included, survivors free), the usage list re-derived from its
// walks, the accumulated lost destinations and the degraded mark — the
// record is appended, apply swaps the session onto it and re-diffs the
// reference counts, and the instances that diff orphaned are
// undeployed. Replay lands on the repaired state from the record alone,
// without re-running the ladder. sr carries the rung's outcome and
// cost.
func (m *Manager) finishRepair(sess *Session, merged *nfv.Embedding, lostIdx []int, sr *SessionRepair) {
	lost := append(append([]int(nil), sess.Lost...), destNodes(sess.Result.Embedding, lostIdx)...)
	sort.Ints(lost)
	out := m.commitLagging(&wal.Record{
		Type:      wal.RecRepair,
		Session:   int64(sess.ID),
		Embedding: merged,
		FinalCost: sr.CostAfter,
		Uses:      m.repairedUses(merged),
		Degraded:  sess.Degraded || len(lostIdx) > 0 || sr.Outcome == RepairDegraded,
		Lost:      lost,
		Outcome:   string(sr.Outcome),
	})
	for _, key := range out.orphans {
		_ = m.net.Undeploy(key[0], key[1])
	}
}

// repairedUses derives a repaired embedding's dynamic-instance
// references from its walks, sorted. Only dynamic instances are
// reference-counted: ones already in the ledger, or fresh installs
// this repair just deployed (in the ledger under no session yet —
// those are exactly the embedding's NewInstances). Callers hold m.mu.
func (m *Manager) repairedUses(emb *nfv.Embedding) [][2]int {
	set := getKeySet()
	defer putKeySet(set)
	k := emb.Task.K()
	for di := range emb.Task.Destinations {
		for lvl := 1; lvl <= k; lvl++ {
			key := [2]int{emb.Task.Chain[lvl-1], emb.ServingNode(di, lvl)}
			if _, dyn := m.refs[key]; dyn || isNewInstance(emb, key) {
				set.add(key)
			}
		}
	}
	// The session keeps the slice, so it must be owned, not pooled.
	keys := append([][2]int(nil), set.keys...)
	sortKeys(keys)
	return keys
}

// keptInstances filters the session's instance list down to instances
// its walks actually traverse: survivors from before the fault (still
// deployed) plus the repair's fresh installs.
func (m *Manager) keptInstances(emb *nfv.Embedding, old, fresh []nfv.Instance) []nfv.Instance {
	trav := traversedKeys(emb)
	var out []nfv.Instance
	seen := make(map[[2]int]bool)
	for _, inst := range old {
		key := [2]int{inst.VNF, inst.Node}
		if trav[key] && m.net.IsDeployed(inst.VNF, inst.Node) && !seen[key] {
			seen[key] = true
			out = append(out, inst)
		}
	}
	for _, inst := range fresh {
		key := [2]int{inst.VNF, inst.Node}
		if !seen[key] {
			seen[key] = true
			out = append(out, inst)
		}
	}
	return out
}

// countReused counts distinct serving instances of the embedding that
// the repair did not install — pre-existing survivors it leans on.
func (m *Manager) countReused(emb *nfv.Embedding, fresh []nfv.Instance) int {
	freshSet := make(map[[2]int]bool, len(fresh))
	for _, inst := range fresh {
		freshSet[[2]int{inst.VNF, inst.Node}] = true
	}
	n := 0
	for key := range traversedKeys(emb) {
		if !freshSet[key] {
			n++
		}
	}
	return n
}

// traversedKeys returns the distinct (vnf, node) serving pairs of the
// embedding's walks.
func traversedKeys(emb *nfv.Embedding) map[[2]int]bool {
	keys := make(map[[2]int]bool)
	k := emb.Task.K()
	for di := range emb.Task.Destinations {
		for lvl := 1; lvl <= k; lvl++ {
			keys[[2]int{emb.Task.Chain[lvl-1], emb.ServingNode(di, lvl)}] = true
		}
	}
	return keys
}

func isNewInstance(emb *nfv.Embedding, key [2]int) bool {
	for _, inst := range emb.NewInstances {
		if inst.VNF == key[0] && inst.Node == key[1] {
			return true
		}
	}
	return false
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
