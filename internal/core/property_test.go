package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: on random instances, the two-stage solver either reports
// infeasibility or returns a validated embedding whose recomputed cost
// matches, with stage two never above stage one.
func TestQuickTwoStageSoundness(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(12), 1+rng.Intn(3), 1+rng.Intn(4))
		res, err := Solve(net, task, Options{})
		if errors.Is(err, ErrNoFeasible) {
			return true
		}
		if err != nil {
			return false
		}
		if net.Validate(res.Embedding) != nil {
			return false
		}
		if res.FinalCost > res.Stage1Cost+1e-9 {
			return false
		}
		return math.Abs(net.Cost(res.Embedding).Total-res.FinalCost) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 4): in the final SFT, the number of distinct
// instances serving chain level j never exceeds the number serving
// level j+1 — predecessor VNFs cannot out-branch their successors.
func TestQuickTheorem4LevelMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 10+rng.Intn(12), 2+rng.Intn(3), 2+rng.Intn(4))
		res, err := Solve(net, task, Options{})
		if errors.Is(err, ErrNoFeasible) {
			return true
		}
		if err != nil {
			return false
		}
		k := task.K()
		prev := 0
		for j := 1; j <= k; j++ {
			hosts := map[int]bool{}
			for di := range task.Destinations {
				hosts[res.Embedding.ServingNode(di, j)] = true
			}
			if j > 1 && len(hosts) < prev {
				return false
			}
			prev = len(hosts)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the aggressive OPA extension never yields a worse (or
// invalid) result than the paper-faithful rule — every extra move it
// considers is gated on the recomputed global cost.
func TestQuickAggressiveOPANeverWorse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 10+rng.Intn(10), 2+rng.Intn(3), 2+rng.Intn(4))
		paper, err := Solve(net, task, Options{})
		if errors.Is(err, ErrNoFeasible) {
			return true
		}
		if err != nil {
			return false
		}
		aggro, err := Solve(net, task, Options{AggressiveOPA: true})
		if err != nil {
			return false
		}
		if net.Validate(aggro.Embedding) != nil {
			return false
		}
		return aggro.FinalCost <= paper.FinalCost+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: solving the same instance twice is bit-for-bit
// deterministic.
func TestQuickDeterminism(t *testing.T) {
	prop := func(seed int64) bool {
		rng1 := rand.New(rand.NewSource(seed))
		net1, task1 := randomInstance(rng1, 10, 2, 3)
		rng2 := rand.New(rand.NewSource(seed))
		net2, task2 := randomInstance(rng2, 10, 2, 3)
		r1, err1 := Solve(net1, task1, Options{})
		r2, err2 := Solve(net2, task2, Options{})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return r1.FinalCost == r2.FinalCost && r1.MovesAccepted == r2.MovesAccepted
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
