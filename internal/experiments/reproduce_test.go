package experiments

import (
	"os"
	"strings"
	"testing"
)

// The checked-in Fig. 13 still reproduces: a five-trial run with the
// OPT* reference prints every cost column of results/fig13.csv byte
// for byte. The time columns are the clock of the machine that ran it
// and are not compared.
func TestFig13ReproducesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("a five-trial OPT* run takes seconds")
	}
	if raceDetector {
		t.Skip("a five-trial OPT* run takes minutes under -race")
	}
	fig, err := Fig13(Config{Trials: 5, Seed: 1, WithReference: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../results/fig13.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, exp := costColumns(fig.CSV()), costColumns(string(want))
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("line %d: got %q, results/fig13.csv has %q", i+1, got[i], exp[i])
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("%d lines, results/fig13.csv has %d", len(got), len(exp))
	}
}

// costColumns keeps figure,x,algorithm,cost_mean,cost_std,trials of
// each CSV line.
func costColumns(csv string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 8 {
			out = append(out, line)
			continue
		}
		out = append(out, strings.Join(append(f[:5:5], f[7]), ","))
	}
	return out
}
