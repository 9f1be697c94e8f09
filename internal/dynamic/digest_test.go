package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"runtime"
	"testing"
)

// repairDigest is TestRepairDigest's hash of every fault repair the
// shadow scripts make. A change that moves any repaired walk, price
// bit, usage list or ladder outcome moves it; a change that only
// restructures how the repair is computed does not. It was retaken
// when Rebase began judging every session before repairing any (the
// constant before was 3c2f5997…: sessions judged after the repairs of
// lower-ID ones), and when every metric became graph.APSP's Dijkstra
// rows (c6af519a… before: networks under 64 nodes took Floyd–Warshall,
// whose distances differ in the last bit; see
// results/repair_apsp_first.txt).
const repairDigest = "c965bc9ff85f8c4979df89d60fec49438b370aadc3b1365112d187c6708cf4cb"

// TestRepairDigest makes "every repair unchanged" a test: over
// TestShadowLedger's scripts it hashes every RepairReport a Rebase returns — counts, purged
// instances, cost delta and each affected session's outcome, severed
// and lost destinations, instance counts, prices and error — and, for
// every session a repair touched, its embedding JSON, FinalCost bits
// and sorted usage list as the ledger holds them after the Rebase.
// Float bits depend on the compiler fusing multiply-adds, so, like
// TestSolveDigest, the constant holds on amd64 only.
func TestRepairDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digest was taken on amd64; other architectures may fuse multiply-adds")
	}
	if raceDetector {
		t.Skip("200 scripts under the race detector take minutes and check no concurrency")
	}
	h, reports := sha256.New(), 0
	for seed := int64(1); seed <= shadowSeeds; seed++ {
		runShadowScript(t, seed, func(m *Manager, rr *RepairReport) {
			reports++
			digestRepair(t, h, m, rr)
		})
	}
	t.Logf("%d repair reports", reports)
	if got := hex.EncodeToString(h.Sum(nil)); got != repairDigest {
		t.Errorf("repair digest %s, want %s: some repair outcome, walk, price or usage list changed", got, repairDigest)
	}
}

// digestRepair writes one Rebase's report and the repaired sessions'
// ledger state to h.
func digestRepair(t *testing.T, h hash.Hash, m *Manager, rr *RepairReport) {
	t.Helper()
	doc, err := json.Marshal(struct {
		Checked, Affected, Patched, Degraded, PurgedInstances int
		CostDelta                                             float64
		Sessions                                              []SessionRepair
	}{rr.Checked, rr.Affected, rr.Patched, rr.Degraded, rr.PurgedInstances, rr.CostDelta, rr.Sessions})
	if err != nil {
		t.Fatal(err)
	}
	h.Write(doc)
	m.mu.Lock()
	defer m.mu.Unlock()
	var word [8]byte
	for _, sr := range rr.Sessions {
		sess := m.sessions[sr.ID]
		emb, err := json.Marshal(sess.Result.Embedding)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(emb)
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(sess.Result.FinalCost))
		h.Write(word[:])
		uses := append([][2]int(nil), sess.uses...)
		sortKeys(uses)
		for _, k := range uses {
			for _, v := range k {
				binary.LittleEndian.PutUint64(word[:], uint64(int64(v)))
				h.Write(word[:])
			}
		}
	}
}
