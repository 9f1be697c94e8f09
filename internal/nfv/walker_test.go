package nfv_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// errText is an error's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameBits reports whether two breakdowns are equal bit for bit.
func sameBits(a, b nfv.CostBreakdown) bool {
	return math.Float64bits(a.Setup) == math.Float64bits(b.Setup) &&
		math.Float64bits(a.Link) == math.Float64bits(b.Link) &&
		math.Float64bits(a.Total) == math.Float64bits(b.Total)
}

// matchNaive holds the segment walker to the per-hop reference on e:
// Validate's and ValidateCost's errors word for word, Cost's and (on a
// valid embedding) ValidateCost's price bit for bit, ValidateCost on
// the bitmap seen carries over from earlier calls. It returns the
// reference verdict, or a description of the first difference.
func matchNaive(net *nfv.Network, e *nfv.Embedding, seen *[]uint64) (verdict, diff error) {
	want := nfv.ValidateNaive(net, e)
	if got := net.Validate(e); errText(got) != errText(want) {
		return want, fmt.Errorf("Validate: %q, reference %q", errText(got), errText(want))
	}
	wantBd := nfv.CostNaive(net, e)
	if bd := net.Cost(e); !sameBits(bd, wantBd) {
		return want, fmt.Errorf("Cost: %+v, reference %+v", bd, wantBd)
	}
	bd, s, err := net.ValidateCost(e, *seen)
	*seen = s
	if errText(err) != errText(want) {
		return want, fmt.Errorf("ValidateCost: %q, reference %q", errText(err), errText(want))
	}
	if err == nil && !sameBits(bd, wantBd) {
		return want, fmt.Errorf("ValidateCost: %+v, reference %+v", bd, wantBd)
	}
	return want, nil
}

// sharedChain is e with every walk routed through the first walk's
// chain segments (copied, not shared) and on from its last host to its
// destination along a shortest path: the shape of a stage-one solution.
func sharedChain(net *nfv.Network, e *nfv.Embedding) *nfv.Embedding {
	c := e.Clone()
	k := c.Task.K()
	metric := net.Graph().APSP()
	last := c.Walks[0][k].Path[0]
	for di := 1; di < len(c.Walks); di++ {
		for j := 0; j < k; j++ {
			c.Walks[di][j] = nfv.Segment{Level: j, Path: slices.Clone(c.Walks[0][j].Path)}
		}
		c.Walks[di][k] = nfv.Segment{Level: k, Path: metric.Path(last, c.Task.Destinations[di])}
	}
	return c
}

// thirdRepeatsFirst is e with the third destination's walk routed
// through the first walk's chain segments (copied) and on along the
// first walk's tree path, hop for hop, then from the first destination
// to its own: every hop of it repeats an earlier walk's, but the
// second walk in between keeps its own. Nil with fewer than three
// destinations.
func thirdRepeatsFirst(net *nfv.Network, e *nfv.Embedding) *nfv.Embedding {
	if len(e.Walks) < 3 {
		return nil
	}
	c := e.Clone()
	k := c.Task.K()
	on := net.Graph().APSP().Path(c.Task.Destinations[0], c.Task.Destinations[2])
	if len(on) == 0 {
		return nil
	}
	w := make(nfv.Walk, k+1)
	for j := range w {
		w[j] = nfv.Segment{Level: j, Path: slices.Clone(c.Walks[0][j].Path)}
	}
	w[k].Path = append(w[k].Path, on[1:]...)
	c.Walks[2] = w
	return c
}

// corruption is an embedding with one segment broken, and whether the
// break must make it invalid.
type corruption struct {
	name     string
	segment  int
	e        *nfv.Embedding
	mustFail bool
}

// corruptSecondCopy breaks the second destination's copy of the first
// chain segment it shares, hop for hop, with the first destination's:
// a non-edge hop, a wrong level label, a path that differs from the
// first copy in one interior node (onto a non-edge, and onto a detour
// that stays on edges and must be priced, not skipped), and a path that
// is a proper prefix of the first copy. Nil when no walk shares one.
func corruptSecondCopy(net *nfv.Network, e *nfv.Embedding) []corruption {
	if len(e.Walks) < 2 {
		return nil
	}
	g, n := net.Graph(), net.NumNodes()
	adjacent := func(u, v int) bool { _, ok := g.HasEdge(u, v); return ok }
	for j := 0; j < e.Task.K(); j++ {
		first, second := e.Walks[0][j], e.Walks[1][j]
		if len(second.Path) < 2 || first.Level != second.Level || !slices.Equal(first.Path, second.Path) {
			continue
		}
		path := second.Path
		var out []corruption
		with := func(name string, mustFail bool, edit func(*nfv.Segment)) {
			c := e.Clone()
			edit(&c.Walks[1][j])
			out = append(out, corruption{name, j, c, mustFail})
		}
		for x := 0; x < n; x++ {
			if x != path[0] && !adjacent(path[0], x) {
				with("non-edge hop", true, func(s *nfv.Segment) { s.Path[1] = x })
				break
			}
		}
		with("wrong level label", true, func(s *nfv.Segment) { s.Level = j + 1 })
		if m := len(path) / 2; len(path) >= 3 {
			for x := 0; x < n; x++ {
				if x != path[m] && !adjacent(path[m-1], x) {
					with("interior node onto a non-edge", true, func(s *nfv.Segment) { s.Path[m] = x })
					break
				}
			}
			for x := 0; x < n; x++ {
				if x != path[m] && adjacent(path[m-1], x) && adjacent(x, path[m+1]) {
					with("interior detour", false, func(s *nfv.Segment) { s.Path[m] = x })
					break
				}
			}
		}
		with("prefix of the first copy", true, func(s *nfv.Segment) { s.Path = s.Path[:len(s.Path)-1] })
		return out
	}
	return nil
}

// corruptThirdCopy breaks the third destination's copy of the first
// segment whose leading hop repeats the first destination's while the
// second destination's same segment does not take it: a non-edge hop
// and a wrong level label. Only the hop memo can skip that copy's
// hops. Nil when no walk has such a segment.
func corruptThirdCopy(net *nfv.Network, e *nfv.Embedding) []corruption {
	if len(e.Walks) < 3 {
		return nil
	}
	g, n := net.Graph(), net.NumNodes()
	for j := 0; j <= e.Task.K() && j < len(e.Walks[2]); j++ {
		first, second, third := e.Walks[0][j], e.Walks[1][j], e.Walks[2][j]
		if len(first.Path) < 2 || len(third.Path) < 2 || first.Level != third.Level ||
			!slices.Equal(first.Path[:2], third.Path[:2]) ||
			(second.Level == third.Level && len(second.Path) >= 2 && slices.Equal(second.Path[:2], third.Path[:2])) {
			continue
		}
		var out []corruption
		with := func(name string, edit func(*nfv.Segment)) {
			c := e.Clone()
			edit(&c.Walks[2][j])
			out = append(out, corruption{name, j, c, true})
		}
		for x := 0; x < n; x++ {
			if _, ok := g.HasEdge(third.Path[0], x); x != third.Path[0] && !ok {
				with("third copy: non-edge hop", func(s *nfv.Segment) { s.Path[1] = x })
				break
			}
		}
		with("third copy: wrong level label", func(s *nfv.Segment) { s.Level = j + 1 })
		return out
	}
	return nil
}

// checkWithCorruptions runs matchNaive on e and on every corruption of
// it, counting the corruptions by name, and fails a corruption that
// must be caught and is not.
func checkWithCorruptions(net *nfv.Network, e *nfv.Embedding, seen *[]uint64, counts map[string]int) error {
	if _, diff := matchNaive(net, e, seen); diff != nil {
		return diff
	}
	for _, c := range append(corruptSecondCopy(net, e), corruptThirdCopy(net, e)...) {
		verdict, diff := matchNaive(net, c.e, seen)
		if diff != nil {
			return fmt.Errorf("%s at segment %d: %v", c.name, c.segment, diff)
		}
		if c.mustFail && verdict == nil {
			return fmt.Errorf("%s at segment %d: not caught", c.name, c.segment)
		}
		counts[c.name]++
	}
	return nil
}

// withThird is embs, each followed by its thirdRepeatsFirst form when
// it has one.
func withThird(net *nfv.Network, embs ...*nfv.Embedding) []*nfv.Embedding {
	var out []*nfv.Embedding
	for _, e := range embs {
		out = append(out, e)
		if third := thirdRepeatsFirst(net, e); third != nil {
			out = append(out, third)
		}
	}
	return out
}

// TestQuickWalkerMatchesNaive holds Validate, Cost and ValidateCost to
// the per-hop reference: on random embeddings (every destination its
// own chain hosts), on the same embeddings with every walk through the
// first walk's chain, on two-stage and stage-one solver outputs, and on
// each of those with the second destination's copy of a shared chain
// segment broken; and on each of those with a third destination that
// repeats the first's segments but not the second's, its copy broken
// too. The walker skips a copy when it repeats an earlier one, so each
// break must be seen by the checks that still run on it or must stop
// the skip.
func TestQuickWalkerMatchesNaive(t *testing.T) {
	var seen []uint64
	counts := map[string]int{}
	var failure error
	prop := func(seed int64) bool {
		net, e := nfv.RandomEmbedding(seed)
		for _, emb := range withThird(net, e, sharedChain(net, e)) {
			if err := checkWithCorruptions(net, emb, &seen, counts); err != nil {
				failure = fmt.Errorf("seed %d: %v\n%v", seed, err, emb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("%v\n%v", err, failure)
	}

	rng := rand.New(rand.NewSource(1))
	net, err := netgen.Generate(netgen.PaperConfig(60, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	solves := 0
	for i := 0; i < 40; i++ {
		task, err := netgen.GenerateTask(net, rng, 2+i%9, 1+i%6)
		if err != nil {
			t.Fatal(err)
		}
		for _, solve := range []func(*nfv.Network, nfv.Task, core.Options) (*core.Result, error){core.Solve, core.SolveStageOne} {
			res, err := solve(net, task, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			solves++
			for _, emb := range withThird(net, res.Embedding) {
				if err := checkWithCorruptions(net, emb, &seen, counts); err != nil {
					t.Fatalf("task %d: %v\n%v", i, err, emb)
				}
			}
		}
	}
	t.Logf("%d solver outputs; corruptions: %v", solves, counts)
	for _, name := range []string{"non-edge hop", "wrong level label", "interior node onto a non-edge", "interior detour", "prefix of the first copy",
		"third copy: non-edge hop", "third copy: wrong level label"} {
		if counts[name] < 20 {
			t.Errorf("thin coverage: %d corruptions %q, want at least 20", counts[name], name)
		}
	}
}

// TestValidateCostAllocs: with a warm bitmap the combined check and
// Validate allocate nothing, on a burst_shared-sized solver output
// (10 destinations, 5 VNFs, 100 nodes).
func TestValidateCostAllocs(t *testing.T) {
	if nfv.RaceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	net, err := netgen.Generate(netgen.PaperConfig(100, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(net, task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Embedding
	_, seen, err := net.ValidateCost(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, seen, err = net.ValidateCost(e, seen)
	})
	if err != nil || allocs != 0 {
		t.Errorf("ValidateCost: %.0f allocations with a warm bitmap (err %v), want 0", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { err = net.Validate(e) }); err != nil || allocs != 0 {
		t.Errorf("Validate: %.0f allocations (err %v), want 0", allocs, err)
	}
}

// BenchmarkValidateCostBurst is the check and price a solve runs on its
// stage-one embedding, on solver outputs of the burst_shared shape (10
// destinations, 5 VNFs, 100 nodes, one chain shared by all), with a
// warm bitmap.
func BenchmarkValidateCostBurst(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := netgen.Generate(netgen.PaperConfig(100, 2), rng)
	if err != nil {
		b.Fatal(err)
	}
	var embs []*nfv.Embedding
	for range 16 {
		task, err := netgen.GenerateTask(net, rng, 10, 5)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Solve(net, task, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		embs = append(embs, res.Embedding)
	}
	var seen []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, seen, err = net.ValidateCost(embs[i%len(embs)], seen); err != nil {
			b.Fatal(err)
		}
	}
}
