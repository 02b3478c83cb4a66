package experiments

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
)

// quick returns a reduced configuration for test speed: the same geometry
// and cost model, smaller datasets and fewer nodes. All shape assertions
// (orderings, ratios) are scale-free.
func quick() Config {
	c := Default()
	c.Nodes = 8
	c.SizesGB = []int{2, 4}
	// 8 → 16 nodes doubles the servers with exact group divisibility at
	// these sizes, so the per-server critical path genuinely halves.
	c.NodeSweep = []int{8, 16}
	return c
}

func TestTableIListsThreeKernels(t *testing.T) {
	tbl := TableI()
	for _, name := range []string{"flow-routing", "flow-accumulation", "gaussian-filter"} {
		if !strings.Contains(tbl, name) {
			t.Errorf("Table I missing %s:\n%s", name, tbl)
		}
	}
}

func TestFig10NASSlowerThanTS(t *testing.T) {
	c := quick()
	r, err := c.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range paperKernels {
		for _, size := range c.SizesGB {
			nas, ok1 := r.Value(k.label+"_NAS", float64(size))
			ts, ok2 := r.Value(k.label+"_TS", float64(size))
			if !ok1 || !ok2 {
				t.Fatalf("missing cells for %s at %d GB", k.label, size)
			}
			if nas <= ts {
				t.Errorf("%s %dGB: NAS %.4fs not slower than TS %.4fs (the paper's Fig. 10 effect)",
					k.label, size, nas, ts)
			}
		}
	}
}

func TestFig11DASWinsWithPaperMargins(t *testing.T) {
	c := quick()
	r, err := c.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for ki, k := range paperKernels {
		das, _ := r.Value("DAS", float64(ki))
		ts, _ := r.Value("TS", float64(ki))
		nas, _ := r.Value("NAS", float64(ki))
		if das <= 0 || ts <= 0 || nas <= 0 {
			t.Fatalf("%s: missing data", k.label)
		}
		if !(das < ts && ts < nas) {
			t.Errorf("%s: want DAS < TS < NAS, got %.4f / %.4f / %.4f", k.label, das, ts, nas)
		}
		// The paper reports >30% over TS and >60% over NAS at full scale;
		// at test scale fixed costs compress the margins, so assert the
		// directional thresholds at half strength.
		if 1-das/ts < 0.15 {
			t.Errorf("%s: DAS only %.0f%% over TS", k.label, 100*(1-das/ts))
		}
		if 1-das/nas < 0.30 {
			t.Errorf("%s: DAS only %.0f%% over NAS", k.label, 100*(1-das/nas))
		}
	}
}

func TestFig12GrowthOrdering(t *testing.T) {
	c := quick()
	r, err := c.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(c.SizesGB[0]), float64(c.SizesGB[len(c.SizesGB)-1])
	for _, k := range paperKernels {
		// Execution time grows with data for every scheme...
		for _, scheme := range []core.Scheme{core.NAS, core.DAS, core.TS} {
			series := k.label + "_" + scheme.String()
			a, _ := r.Value(series, lo)
			b, _ := r.Value(series, hi)
			if b <= a {
				t.Errorf("%s: time did not grow with data (%.4f → %.4f)", series, a, b)
			}
		}
		// ...and DAS has the smallest absolute growth.
		growth := func(scheme core.Scheme) float64 {
			a, _ := r.Value(k.label+"_"+scheme.String(), lo)
			b, _ := r.Value(k.label+"_"+scheme.String(), hi)
			return b - a
		}
		if !(growth(core.DAS) < growth(core.TS) && growth(core.DAS) < growth(core.NAS)) {
			t.Errorf("%s: DAS growth %.4f not smallest (TS %.4f, NAS %.4f)",
				k.label, growth(core.DAS), growth(core.TS), growth(core.NAS))
		}
	}
}

func TestFig13BothSchemesScaleWithNodes(t *testing.T) {
	c := quick()
	r, err := c.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	few, many := float64(c.NodeSweep[0]), float64(c.NodeSweep[len(c.NodeSweep)-1])
	for _, k := range paperKernels {
		for _, scheme := range []core.Scheme{core.DAS, core.TS} {
			series := k.label + "_" + scheme.String()
			a, _ := r.Value(series, few)
			b, _ := r.Value(series, many)
			if b >= a {
				t.Errorf("%s: adding nodes did not help (%.4f @ %v → %.4f @ %v)", series, a, few, b, many)
			}
		}
	}
}

func TestFig14BandwidthOrdering(t *testing.T) {
	c := quick()
	r, err := c.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range c.SizesGB {
		ts, _ := r.Value("TS", float64(size))
		das, _ := r.Value("DAS", float64(size))
		nas, _ := r.Value("NAS", float64(size))
		if ts != 1 {
			t.Errorf("%dGB: TS normalization %.4f != 1", size, ts)
		}
		if !(das > 1 && nas < 1) {
			t.Errorf("%dGB: want DAS > 1 > NAS, got DAS=%.4f NAS=%.4f", size, das, nas)
		}
	}
}

func TestResultTableAndCSV(t *testing.T) {
	r := &Result{ID: "figX", Title: "demo", XLabel: "x", YLabel: "y"}
	r.Add("a", 1, 0.5)
	r.Add("b", 1, 0.25)
	r.Add("a", 2, 1.5)
	r.Notes = append(r.Notes, "hello")
	tbl := r.Table()
	for _, want := range []string{"FIGX", "demo", "a", "b", "0.5000", "note: hello"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	csv := r.CSV()
	if !strings.Contains(csv, "a,1,0.5") || !strings.Contains(csv, "series,x,y") {
		t.Errorf("csv wrong:\n%s", csv)
	}
	// Missing cell renders as "-".
	if !strings.Contains(tbl, "-") {
		t.Errorf("missing cell not rendered:\n%s", tbl)
	}
}

func TestChartRendersBars(t *testing.T) {
	r := &Result{ID: "figX", Title: "demo", XLabel: "size", YLabel: "seconds"}
	r.Add("NAS", 24, 0.4)
	r.Add("DAS", 24, 0.1)
	r.Add("TS", 24, 0.2)
	chart := r.Chart(40)
	for _, want := range []string{"FIGX", "size = 24", "NAS", "DAS", "TS", "█"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	// The largest value gets the longest bar.
	nasBars := strings.Count(lineOf(chart, "NAS"), "█")
	dasBars := strings.Count(lineOf(chart, "DAS"), "█")
	if nasBars != 40 || dasBars >= nasBars || dasBars < 1 {
		t.Errorf("bar lengths NAS=%d DAS=%d", nasBars, dasBars)
	}
	// Degenerate cases.
	if (&Result{ID: "e", Title: "t"}).Chart(40) != "" {
		t.Error("empty result should render no chart")
	}
}

func lineOf(s, substr string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

func TestRunOneRejectsOddNodes(t *testing.T) {
	c := quick()
	if _, err := c.RunOne(core.TS, "flow-routing", 2, 7); err == nil {
		t.Error("odd node count accepted")
	}
}

func TestDatasetGeometryValidation(t *testing.T) {
	c := quick()
	c.Width = 5000 // does not divide any power-of-two size
	if _, err := c.dataset("flow-routing", 2); err == nil {
		t.Error("untileable width accepted")
	}
}

// TestReplayRejectsDivergence covers the shared replay check every
// report-producing experiment goes through: identical passes return the
// first report, a pass whose marshalled report differs is an error, and a
// failing second pass names the replay.
func TestReplayRejectsDivergence(t *testing.T) {
	type report struct{ N int }
	passes := func(ns ...int) func() (*report, error) {
		i := 0
		return func() (*report, error) {
			n := ns[i]
			i++
			if n < 0 {
				return nil, fmt.Errorf("pass %d failed", i)
			}
			return &report{N: n}, nil
		}
	}
	if r, err := replay("same", passes(7, 7)); err != nil || r.N != 7 {
		t.Errorf("identical passes: report %+v, err %v", r, err)
	}
	if _, err := replay("drift", passes(7, 8)); err == nil || !strings.Contains(err.Error(), "drift: replay diverged") {
		t.Errorf("divergent passes: err %v, want a replay divergence", err)
	}
	if _, err := replay("flaky", passes(7, -1)); err == nil || !strings.Contains(err.Error(), "flaky replay: pass 2 failed") {
		t.Errorf("failing replay: err %v, want it wrapped as the replay", err)
	}
}
