package main

import (
	"sftree/internal/conformance"
	"sftree/internal/dynamic"
	"sftree/internal/nfv"
)

// recountLive re-derives a live embedding's cost with its own installed
// instances undeployed on a scratch copy — the counterpart of
// conformance.CheckLive for Recount, which would otherwise reject them
// as already deployed.
func recountLive(net *nfv.Network, e *nfv.Embedding) error {
	scratch := net
	for _, inst := range e.NewInstances {
		if net.IsDeployed(inst.VNF, inst.Node) {
			if scratch == net {
				scratch = net.Clone()
			}
			if err := scratch.Undeploy(inst.VNF, inst.Node); err != nil {
				return err
			}
		}
	}
	_, err := conformance.Recount(scratch, e)
	return err
}

// liveOracle checks the state a stateful workload left behind: the
// refcount ledger re-derives from the live sessions, every live
// embedding passes the conformance validator and recount on the
// network as it stands, and once everything is released no dynamic
// instance or session remains.
func liveOracle(rc *runCtx, mgr *dynamic.Manager) error {
	if err := mgr.VerifyRefs(); err != nil {
		rc.fail("refcount ledger: %v", err)
	}
	net := mgr.CloneNetwork()
	sessions := mgr.Sessions()
	rc.samples["live_sessions_checked"] = len(sessions)
	for _, s := range sessions {
		if s.Degraded {
			continue
		}
		if err := conformance.CheckLive(net, s.Result.Embedding); err != nil {
			rc.fail("session %d: %v", s.ID, err)
		} else if err := recountLive(net, s.Result.Embedding); err != nil {
			rc.fail("session %d: recount: %v", s.ID, err)
		}
	}
	for _, s := range sessions {
		if err := mgr.Release(s.ID); err != nil {
			rc.fail("release session %d: %v", s.ID, err)
		}
	}
	if n := mgr.Active(); n != 0 {
		rc.fail("%d sessions live after releasing all", n)
	}
	if n := mgr.LiveInstances(); n != 0 {
		rc.fail("%d dynamic instances live after releasing all sessions", n)
	}
	if err := mgr.VerifyRefs(); err != nil {
		rc.fail("refcount ledger after release: %v", err)
	}
	return nil
}
