package experiments

import (
	"strings"
	"testing"
)

// smallCfg keeps experiment tests fast: one trial, fixed seed.
var smallCfg = Config{Trials: 1, Seed: 7}

func checkFigure(t *testing.T, fig *Figure, wantRows int) {
	t.Helper()
	if len(fig.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", fig.ID, len(fig.Rows), wantRows)
	}
	for _, row := range fig.Rows {
		for _, algo := range fig.AlgOrder {
			st, ok := row.Algos[algo]
			if !ok {
				t.Fatalf("%s x=%v: missing algo %s", fig.ID, row.X, algo)
			}
			if st.Cost.N() == 0 {
				t.Fatalf("%s x=%v %s: no cost observations", fig.ID, row.X, algo)
			}
			if st.Cost.Mean() <= 0 {
				t.Fatalf("%s x=%v %s: non-positive mean cost %v", fig.ID, row.X, algo, st.Cost.Mean())
			}
		}
	}
}

func TestFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := Fig8(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// Cost grows with network size (paper's observation).
	first := fig.Rows[0].Algos[AlgoMSA].Cost.Mean()
	last := fig.Rows[len(fig.Rows)-1].Algos[AlgoMSA].Cost.Mean()
	if last <= first {
		t.Errorf("MSA cost did not grow with |V|: %v -> %v", first, last)
	}
}

func TestFig13PalmettoWithReference(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	cfg := smallCfg
	cfg.WithReference = true
	fig, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	for _, row := range fig.Rows {
		opt := row.Algos[AlgoOPT].Cost.Mean()
		msa := row.Algos[AlgoMSA].Cost.Mean()
		if opt > msa+1e-6 {
			t.Errorf("|D|=%v: OPT* %v above MSA %v", row.X, opt, msa)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := Fig10(Config{Trials: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cost := fig.CostTable()
	if !strings.Contains(cost, "FIG10") || !strings.Contains(cost, AlgoMSA) {
		t.Errorf("cost table malformed:\n%s", cost)
	}
	timeTab := fig.TimeTable()
	if !strings.Contains(timeTab, "running time") {
		t.Errorf("time table malformed:\n%s", timeTab)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "figure,x,algorithm") {
		t.Errorf("csv header malformed:\n%s", csv)
	}
	wantLines := 1 + len(fig.Rows)*len(fig.AlgOrder)
	if got := strings.Count(csv, "\n"); got != wantLines {
		t.Errorf("csv lines = %d, want %d", got, wantLines)
	}
	if sum := fig.Summary(); !strings.Contains(sum, "MSA vs RSA") {
		t.Errorf("summary malformed: %s", sum)
	}
}

func TestParallelTrialsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	seq, err := Fig10(Config{Trials: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig10(Config{Trials: 3, Seed: 9, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Rows {
		for _, algo := range seq.AlgOrder {
			a := seq.Rows[i].Algos[algo].Cost.Mean()
			b := par.Rows[i].Algos[algo].Cost.Mean()
			if a != b {
				t.Fatalf("row %d %s: sequential %v != parallel %v", i, algo, a, b)
			}
		}
	}
}

func TestGapStudyILPNeverAboveHeuristics(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := GapStudy(Config{Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		ilpCost := row.Algos[AlgoILP].Cost.Mean()
		for _, algo := range []string{AlgoMSA, AlgoSCA, AlgoRSA} {
			st := row.Algos[algo]
			if st.Cost.N() == 0 {
				continue
			}
			// Compare per-point means; the ILP column is a proven optimum
			// on exactly the instances the heuristics ran on.
			if algo == AlgoMSA && st.Cost.Mean() < ilpCost-1e-6 {
				t.Errorf("|V|=%v: MSA %v below proven optimum %v", row.X, st.Cost.Mean(), ilpCost)
			}
		}
	}
}

func TestCostChart(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := TraceStudy(Config{Trials: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	chart := fig.CostChart()
	if !strings.Contains(chart, "#") {
		t.Errorf("chart has no bars:\n%s", chart)
	}
	if !strings.Contains(chart, ColAcceptance) {
		t.Errorf("chart missing series label:\n%s", chart)
	}
	// Empty figure: graceful output.
	empty := &Figure{ID: "x", Title: "t", XLabel: "x", AlgOrder: []string{"A"}}
	if got := empty.CostChart(); !strings.Contains(got, "(no data)") {
		t.Errorf("empty chart = %q", got)
	}
	if sum := empty.Summary(); !strings.Contains(sum, "no MSA-relative series") {
		t.Errorf("empty summary = %q", sum)
	}
}

func TestRatioStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := RatioStudy(Config{Trials: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 4 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		msa := row.Algos[AlgoMSA].Cost.Mean()
		opt := row.Algos[AlgoOPT].Cost.Mean()
		if opt > msa+1e-6 {
			t.Errorf("capacity %v: OPT* %v above MSA %v", row.X, opt, msa)
		}
	}
}

func TestBranchStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := BranchStudy(Config{Trials: 1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		stage1 := row.Algos[ColRSAStage1].Cost.Mean()
		paper := row.Algos[ColRSAPaperOPA].Cost.Mean()
		aggro := row.Algos[ColRSAAggro].Cost.Mean()
		if paper > stage1+1e-6 {
			t.Errorf("density %v: paper OPA above its own stage one", row.X)
		}
		if aggro > paper+1e-6 {
			t.Errorf("density %v: aggressive OPA (%v) worse than paper OPA (%v)", row.X, aggro, paper)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"8", "9", "10", "11", "12", "13", "14", "fig8", "fig14", "gap", "trace", "ratio"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) not found", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted garbage")
	}
}

func TestAblationOPAOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	fig, err := AblationOPA(Config{Trials: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		global := row.Algos["GlobalAccept"].Cost.Mean()
		stage1 := row.Algos["StageOneOnly"].Cost.Mean()
		if global > stage1+1e-6 {
			t.Errorf("|V|=%v: stage two increased cost %v -> %v", row.X, stage1, global)
		}
	}
}
