// Command dasbench regenerates the paper's evaluation: every figure and
// table of §IV plus the ablations described in DESIGN.md, and the JSON
// reports of the adaptive-stack and host-cost experiments. By default it
// runs the paper-mirroring configuration (24–60 GB datasets scaled 1 GB →
// 1 MiB, 24–60 nodes); -quick runs a reduced sweep for smoke tests.
//
// Usage:
//
//	dasbench                             # everything, text tables
//	dasbench -exp fig12                  # one experiment
//	dasbench -exp ablations              # the ablations
//	dasbench -csv                        # machine-readable output
//	dasbench -quick                      # reduced sizes/nodes
//	dasbench -exp cache -json BENCH_cache.json   # an experiment's JSON report
//	dasbench -quick -exp tenants -smoke  # reduced configuration for CI
//	dasbench -exp kernels                # kernel/scheme micro-benchmarks → BENCH_kernels.json
//	dasbench -exp scale                  # engine-scaling sweep → BENCH_scale.json
//	dasbench -cpuprofile cpu.out -exp fig11   # profile a run
//
// The report-producing experiments are cache, restripe, p99, tenants,
// pipeline, kernels and scale; -json writes the selected one's report.
// -smoke selects the reduced CI configuration of cache, restripe, p99
// (fewer rounds), tenants, pipeline and scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/restripe"
)

// report runs one report-producing experiment. The table is nil for
// kernels and scale, whose JSON report is their whole result.
type report func(cfg experiments.Config, smoke bool) (table *experiments.Result, rep any, err error)

// reports holds every experiment -json can write, and smokeable those of
// them -smoke reduces.
var (
	reports = map[string]report{
		"cache": func(cfg experiments.Config, smoke bool) (*experiments.Result, any, error) {
			return cfg.CacheExperiment(pick(smoke, 2, 3), cache.Config{})
		},
		"restripe": func(cfg experiments.Config, smoke bool) (*experiments.Result, any, error) {
			return cfg.RestripeExperiment(pick(smoke, 2, 3), restripe.Config{})
		},
		"p99": func(cfg experiments.Config, smoke bool) (*experiments.Result, any, error) {
			return cfg.P99Experiment(pick(smoke, 7, 8), control.Config{})
		},
		"tenants": func(cfg experiments.Config, smoke bool) (*experiments.Result, any, error) {
			tcfg := experiments.DefaultTenantsConfig()
			if smoke {
				tcfg = experiments.SmokeTenantsConfig()
			}
			return cfg.TenantsExperiment(tcfg)
		},
		"pipeline": func(cfg experiments.Config, smoke bool) (*experiments.Result, any, error) {
			return cfg.PipelineExperiment(smoke)
		},
		"kernels": func(cfg experiments.Config, _ bool) (*experiments.Result, any, error) {
			rep, err := kernelsBench(cfg)
			return nil, rep, err
		},
		"scale": func(_ experiments.Config, smoke bool) (*experiments.Result, any, error) {
			rep, err := scaleSweep(smoke)
			return nil, rep, err
		},
	}
	smokeable = map[string]bool{"cache": true, "restripe": true, "p99": true, "tenants": true, "pipeline": true, "scale": true}
)

// pick returns the smoke value under -smoke and the default otherwise.
func pick(smoke bool, smokeVal, def int) int {
	if smoke {
		return smokeVal
	}
	return def
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, tableI, fig10-fig14, faults, ablations, ablation-*, or a report-producing one: "+strings.Join(names(reports), ", "))
	smoke := flag.Bool("smoke", false, "reduced configuration for CI smoke runs (experiments: "+strings.Join(names(smokeable), ", ")+")")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	chart := flag.Bool("chart", false, "append an ASCII bar chart to each table")
	quick := flag.Bool("quick", false, "reduced sweep (2-4 GB, 8-16 nodes) for smoke testing")
	nodes := flag.Int("nodes", 0, "override the default node count")
	jsonPath := flag.String("json", "", "write the selected experiment's JSON report to this file (kernels and scale default to BENCH_<exp>.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	name := strings.ToLower(*exp)
	if err := checkFlags(name, *smoke, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "dasbench:", err)
		os.Exit(1)
	}

	cfg := experiments.Default()
	if *quick {
		cfg.Nodes = 8
		cfg.SizesGB = []int{2, 4}
		cfg.NodeSweep = []int{8, 16}
	}
	if *nodes != 0 {
		cfg.Nodes = *nodes
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dasbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dasbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	out := output{csv: *csv, chart: *chart}
	var err error
	if rep, ok := reports[name]; ok {
		path := *jsonPath
		if path == "" && (name == "kernels" || name == "scale") && !*smoke {
			path = "BENCH_" + name + ".json"
		}
		err = runReport(cfg, rep, *smoke, path, out)
	} else {
		err = run(cfg, name, out)
	}

	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr == nil {
			runtime.GC() // flush recent allocation stats into the profile
			ferr = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
		if ferr != nil && err == nil {
			err = ferr
		}
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "dasbench:", err)
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// checkFlags rejects -smoke and -json on experiments they would silently
// not apply to.
func checkFlags(name string, smoke bool, jsonPath string) error {
	if smoke && !smokeable[name] {
		return fmt.Errorf("-smoke applies only to -exp %s", strings.Join(names(smokeable), ", "))
	}
	if _, ok := reports[name]; jsonPath != "" && !ok {
		return fmt.Errorf("-json applies only to -exp %s", strings.Join(names(reports), ", "))
	}
	return nil
}

// names returns a map's keys in sorted order.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// output renders result tables as text (optionally with a chart) or CSV.
type output struct{ csv, chart bool }

func (o output) emit(r *experiments.Result) {
	if o.csv {
		fmt.Printf("# %s\n%s\n", r.ID, r.CSV())
		return
	}
	fmt.Println(r.Table())
	if o.chart {
		fmt.Println(r.Chart(48))
	}
}

// runReport runs a report-producing experiment, prints its table, and
// writes its report to path unless path is empty.
func runReport(cfg experiments.Config, rep report, smoke bool, path string, out output) error {
	table, v, err := rep(cfg, smoke)
	if err != nil {
		return err
	}
	if table != nil {
		out.emit(table)
	}
	if path == "" {
		return nil
	}
	if err := writeJSON(path, v); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// run runs a table-only experiment, the ablations, or everything.
func run(cfg experiments.Config, exp string, out output) error {
	single := map[string]func() (*experiments.Result, error){
		"fig10":                      cfg.Fig10,
		"fig11":                      cfg.Fig11,
		"fig12":                      cfg.Fig12,
		"fig13":                      cfg.Fig13,
		"fig14":                      cfg.Fig14,
		"faults":                     cfg.FaultFailover,
		"ablation-group-size":        cfg.AblationGroupSize,
		"ablation-predictor":         cfg.AblationPredictor,
		"ablation-reconfig":          cfg.AblationReconfig,
		"ablation-halo-fetch":        cfg.AblationHaloFetch,
		"ablation-multitenant":       cfg.AblationMultiTenant,
		"ablation-deployment":        cfg.AblationDeployment,
		"ablation-compute-intensity": cfg.AblationComputeIntensity,
		"ablation-strip-size":        cfg.AblationStripSize,
		"ablation-mapreduce":         cfg.AblationMapReduce,
	}
	switch exp {
	case "tablei":
		fmt.Println(experiments.TableI())
		return nil
	case "ablations":
		results, err := cfg.Ablations()
		if err != nil {
			return err
		}
		for _, r := range results {
			out.emit(r)
		}
		return nil
	case "all":
		fmt.Println(experiments.TableI())
		results, err := cfg.All()
		if err != nil {
			return err
		}
		for _, r := range results {
			out.emit(r)
		}
		results, err = cfg.Ablations()
		if err != nil {
			return err
		}
		for _, r := range results {
			out.emit(r)
		}
		return nil
	default:
		f, ok := single[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		r, err := f()
		if err != nil {
			return err
		}
		out.emit(r)
		return nil
	}
}
