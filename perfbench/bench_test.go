package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func runTiny(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	spec, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	o := options{name: name, seed: seed, build: spec.tiny, setups: 1, trace: trace}
	if trace {
		o.traceDir = t.TempDir()
	}
	res, err := runBenchmark(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func metricsOf(t *testing.T, res *result) map[string]metric {
	t.Helper()
	b, err := json.Marshal(res.output())
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("run not correct: %s", b)
	}
	return out.Metrics
}

// Every workload emits every end-to-end metric untraced and every
// per-layer metric traced, each with the unit BENCHMARK.json declares.
// The cpu.*_frac shares are added by run.py from the CPU profile.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadSpecs {
		t.Run(w.name, func(t *testing.T) {
			got := metricsOf(t, runTiny(t, w.name, 3, false))
			checkMetrics(t, got, endToEnd)
			for name, m := range got {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			want := map[string]string{}
			for name, unit := range perLayer {
				if !strings.HasPrefix(name, "cpu.") {
					want[name] = unit
				}
			}
			checkMetrics(t, metricsOf(t, runTiny(t, w.name, 3, true)), want)
		})
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("missing metric %s", name)
		} else if m.Unit != unit {
			t.Errorf("%s unit %q, want %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("undeclared metric %s", name)
		}
	}
}

var simulated = []string{"sim_s", "sim_op_p50_ms", "sim_op_p99_ms", "net_mb", "ok_frac"}

// Two runs of one seed give identical simulated metrics; another seed
// changes them.
func TestSimulatedMetricsRepeatPerSeed(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.name, func(t *testing.T) {
			a := metricsOf(t, runTiny(t, w.name, 5, false))
			b := metricsOf(t, runTiny(t, w.name, 5, false))
			c := metricsOf(t, runTiny(t, w.name, 6, false))
			differs := false
			for _, name := range simulated {
				if a[name] != b[name] {
					t.Errorf("%s: %v then %v under one seed", name, a[name].Value, b[name].Value)
				}
				if a[name] != c[name] {
					differs = true
				}
			}
			if !differs {
				t.Errorf("seeds 5 and 6 gave identical simulated metrics %v", a)
			}
		})
	}
}

// Corrupting one byte of what the system stores, or of the reference it is
// checked against, makes the output check fire.
func TestOutputCheckFires(t *testing.T) {
	cases := map[string]func(w benchWorkload){
		"fig11": func(w benchWorkload) {
			ref := w.(*fig11).refs[kernelOps[0]]
			ref.Data[len(ref.Data)/2] += 1
		},
		"rpc":        corruptStrip,
		"rpc-faults": corruptStrip,
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			spec, _ := lookupWorkload(name)
			w := spec.tiny(3)
			if err := w.prepare(); err != nil {
				t.Fatal(err)
			}
			if r, err := w.round(0, nil); err != nil || r.failed != 0 {
				t.Fatalf("clean round: failed=%d err=%v", r.failed, err)
			}
			corrupt(w)
			r, err := w.round(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 || r.completed+r.failed != r.attempted {
				t.Fatalf("corrupted round: attempted=%d completed=%d failed=%d", r.attempted, r.completed, r.failed)
			}
		})
	}
}

// corruptStrip flips one byte of the copy preloaded for every strip, so a
// read of any strip that no write has rewritten yet returns wrong bytes.
func corruptStrip(w benchWorkload) {
	rw := w.(*rpc)
	rw.stored = make([][]byte, len(rw.canon))
	for s, c := range rw.canon {
		rw.stored[s] = append([]byte(nil), c...)
		rw.stored[s][7] ^= 1
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n, pct int
		v      int64
	}{
		{9, 100, 9},
		{20, 100, 20},
		{100, 90, 90},
		{1000, 99, 990},
		{1009, 99, 999},
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.v {
			t.Errorf("tail of %d samples = p%d %d, want p%d %d", tc.n, pct, v, tc.pct, tc.v)
		}
	}
}
