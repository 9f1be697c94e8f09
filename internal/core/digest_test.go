package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// solveDigest is TestSolveDigest's hash of every solve it runs. A
// change that moves any embedding, price bit, move count or stage-one
// last host moves it; a change that only makes the solver faster does
// not. It was taken before the column pass skipped dominated rows, the
// table build memoised relocation scans and the sweep memoised repeated
// roots.
const solveDigest = "c9fa19a5e6a5132e56570fb71791d856ce73d0a864cdbf2106396949d01d47a7"

// TestSolveDigest makes "every embedding unchanged" a test: it hashes,
// one solve at a time, FinalCost and Stage1Cost bits, MovesAccepted,
// LastHost and the embedding's JSON (or the error), over 30 generated
// paper networks of 40-200 nodes with 60 tasks each, and over 12
// networks that fill up as 400 tasks each deploy their results' new
// instances. Float bits depend on the compiler fusing multiply-adds,
// which it does on some architectures and not on amd64, so the constant
// holds on amd64 only.
func TestSolveDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digest was taken on amd64; other architectures may fuse multiply-adds")
	}
	if raceDetector {
		t.Skip("4 800 solves under the race detector take minutes and check no concurrency")
	}
	h, failed := sha256.New(), 0
	shapes := [][2]int{{5, 3}, {10, 5}, {20, 7}, {5, 5}, {10, 7}, {20, 3}, {5, 7}, {10, 3}, {20, 5}}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := netgen.Generate(netgen.PaperConfig(40+rng.Intn(161), 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			s := shapes[(int(seed)+i)%len(shapes)]
			digestSolve(t, h, net, rng, s[0], s[1])
		}
	}
	for seed := int64(101); seed <= 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := netgen.Generate(netgen.PaperConfig(40+rng.Intn(61), 2), rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			s := shapes[(int(seed)+i)%len(shapes)]
			res := digestSolve(t, h, net, rng, min(s[0], net.NumNodes()-1), s[1])
			if res == nil {
				failed++
				continue
			}
			for _, inst := range res.Embedding.NewInstances {
				if err := net.Deploy(inst.VNF, inst.Node); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Logf("%d of 4 800 solves on filling networks found no feasible embedding", failed)
	if got := hex.EncodeToString(h.Sum(nil)); got != solveDigest {
		t.Errorf("solve digest %s, want %s: some embedding, price or stage-one host changed", got, solveDigest)
	}
}

// digestSolve solves one generated task on net and writes the result,
// or the error, to h.
func digestSolve(t *testing.T, h hash.Hash, net *nfv.Network, rng *rand.Rand, dests, k int) *Result {
	t.Helper()
	task, err := netgen.GenerateTask(net, rng, dests, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(net, task, Options{})
	if err != nil {
		h.Write([]byte(err.Error()))
		return nil
	}
	var word [8]byte
	for _, v := range []uint64{math.Float64bits(res.FinalCost), math.Float64bits(res.Stage1Cost),
		uint64(res.MovesAccepted), uint64(int64(res.LastHost))} {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	doc, err := json.Marshal(res.Embedding)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(doc)
	return res
}
