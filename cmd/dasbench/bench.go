package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/workload"
)

// kernelBenchResult is one micro-benchmark row: a kernel applied to a full
// in-memory band, sequentially or through the parallel executor.
type kernelBenchResult struct {
	Kernel      string  `json:"kernel"`
	Mode        string  `json:"mode"` // "sequential" or "parallel"
	Shards      int     `json:"shards"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
}

// schemeBenchResult measures regenerating one scheme run end to end: wall
// nanoseconds and allocations per run, plus the simulated execution time
// the run reports (the paper's metric).
type schemeBenchResult struct {
	Scheme      string  `json:"scheme"`
	Op          string  `json:"op"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SimSeconds  float64 `json:"sim_seconds"`
}

// restripeBenchRow is one variant's migration counters from the short
// online-restripe run included in the micro-benchmark report.
type restripeBenchRow struct {
	Variant string `json:"variant"`
	experiments.RestripeMigrationReport
}

type benchReport struct {
	GoMaxProcs  int                          `json:"go_max_procs"`
	NumCPU      int                          `json:"num_cpu"`
	GridWidth   int                          `json:"grid_width"`
	GridHeight  int                          `json:"grid_height"`
	SchemeSize  int                          `json:"scheme_size_gb"`
	SchemeNodes int                          `json:"scheme_nodes"`
	Kernels     []kernelBenchResult          `json:"kernels"`
	Schemes     []schemeBenchResult          `json:"schemes"`
	Recovery    []experiments.SchemeRecovery `json:"recovery"`
	Restripe    []restripeBenchRow           `json:"restripe"`
}

// kernelsBench runs the kernel and scheme micro-benchmarks (the
// BENCH_kernels.json artifact).
func kernelsBench(cfg experiments.Config) (*benchReport, error) {
	const w, h = 1024, 512
	terrain := workload.Terrain(w, h, 1)
	image := workload.Image(w, h, 1, 0.05)
	cases := []struct {
		k  kernels.Kernel
		in *grid.Grid
	}{
		{kernels.FlowRouting{}, terrain},
		{kernels.FlowAccumulation{}, kernels.Apply(kernels.FlowRouting{}, terrain)},
		{kernels.Gaussian{}, image},
		{kernels.Median{}, image},
	}

	rep := &benchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GridWidth:  w,
		GridHeight: h,
	}

	for _, c := range cases {
		band := grid.BandOf(c.in, 0, c.in.Len(), 0, c.in.Len())
		out := make([]float64, c.in.Len())
		sizeBytes := c.in.SizeBytes()
		for _, mode := range []string{"sequential", "parallel"} {
			if mode == "sequential" {
				kernels.SetParallelism(1)
			} else {
				kernels.SetParallelism(0) // auto: GOMAXPROCS above the size threshold
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.SetBytes(sizeBytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if mode == "sequential" {
						c.k.ApplyBand(band, out)
					} else {
						kernels.ParallelApplyBand(c.k, band, out)
					}
				}
			})
			rep.Kernels = append(rep.Kernels, kernelBenchResult{
				Kernel:      c.k.Name(),
				Mode:        mode,
				Shards:      kernels.Parallelism(c.in.Len()),
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				MBPerSec:    float64(sizeBytes) / 1e6 / (float64(r.NsPerOp()) / 1e9),
			})
		}
		kernels.SetParallelism(0)
	}

	// Scheme runs at the smallest configured size: wall cost and garbage of
	// regenerating one paper data point per scheme.
	size, nodes := cfg.SizesGB[0], cfg.Nodes
	rep.SchemeSize, rep.SchemeNodes = size, nodes
	const op = "flow-routing"
	for _, scheme := range []core.Scheme{core.TS, core.NAS, core.DAS} {
		var simSeconds float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := cfg.RunOne(scheme, op, size, nodes)
				if err != nil {
					b.Fatal(err)
				}
				simSeconds = out.ExecTime.Seconds()
			}
		})
		rep.Schemes = append(rep.Schemes, schemeBenchResult{
			Scheme:      scheme.String(),
			Op:          op,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			SimSeconds:  simSeconds,
		})
	}

	// The crashed-run recovery counters: previously these appeared only in
	// the -faults human-readable notes, so the JSON trajectory lost the
	// degrade and failover events.
	_, recs, err := cfg.FaultFailoverRecovery()
	if err != nil {
		return nil, err
	}
	rep.Recovery = recs

	// Migration counters from a short online-restripe run, so the JSON
	// trajectory tracks the background migrator alongside recovery.
	_, rr, err := cfg.RestripeExperiment(2, restripe.Config{})
	if err != nil {
		return nil, err
	}
	for _, v := range rr.Variants {
		if v.Migration != nil {
			rep.Restripe = append(rep.Restripe, restripeBenchRow{Variant: v.Name, RestripeMigrationReport: *v.Migration})
		}
	}

	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
