package experiments

import (
	"fmt"
	"math"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/workload"
)

// pipelineSmokeGB is the dataset size for the CI smoke variant of the
// pipeline experiment: small enough for the race detector, large enough
// that every strip still carries cross-server dependence bands.
const pipelineSmokeGB = 2

// PipelineDAG is the experiment's operator graph: the terrain chain the
// paper's evaluation kernels compose naturally into — smooth, route,
// accumulate — closed by a statistics reduction. Four stages, three
// intermediate rasters the per-pass reference writes back and the
// pushdown never materializes.
func PipelineDAG() kernels.DAG {
	return kernels.Chain("terrain4",
		[]string{"gaussian-filter", "flow-routing", "flow-accumulation"}, "stats")
}

// PipelineVariantReport is one (scheme × execution mode) cell of the
// pipeline experiment.
type PipelineVariantReport struct {
	Name           string  `json:"name"`
	Scheme         string  `json:"scheme"`
	Pipelined      bool    `json:"pipelined"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// TotalBytes is every byte the run moved over the interconnect
	// (input reads, inter-stage traffic, writeback, replication).
	TotalBytes int64 `json:"total_bytes"`
	// Pushdown-only counters (zero for the per-pass reference).
	Stages            int     `json:"stages,omitempty"`
	FusedStages       int     `json:"fused_stages,omitempty"`
	Rounds            int     `json:"rounds,omitempty"`
	FetchBytes        int64   `json:"fetch_bytes,omitempty"`
	ExchangeBytes     int64   `json:"exchange_bytes,omitempty"`
	AchievedHaloBytes int64   `json:"achieved_halo_bytes,omitempty"`
	LowerBoundBytes   int64   `json:"lower_bound_bytes,omitempty"`
	LowerBoundRatio   float64 `json:"lower_bound_ratio,omitempty"`
	// Reduce is the terminal statistics vector; identical across all
	// four variants up to the documented per-pass float merge order.
	Reduce []float64 `json:"reduce"`
	// OutputVerified records the bitwise comparison against the
	// sequential in-memory DAG reference.
	OutputVerified bool `json:"output_verified"`
}

// PipelineFaultReport is the crash-and-restart run of the pushdown: a
// storage server dies halfway through and returns shortly after with its
// in-memory pipeline state gone, so the client must redispatch its strips
// and the servers must catch lost lineage up from the durable input.
type PipelineFaultReport struct {
	HealthySeconds float64 `json:"healthy_seconds"`
	CrashedSeconds float64 `json:"crashed_seconds"`
	Redispatches   int64   `json:"redispatches"`
	CatchUps       int64   `json:"catch_ups"`
	FaultEvents    int     `json:"fault_events_applied"`
	OutputVerified bool    `json:"output_verified"`
}

// PipelineRunReport is the JSON-able record of one pipeline experiment
// (BENCH_pipeline.json).
type PipelineRunReport struct {
	DAG            string                  `json:"dag"`
	DAGStages      int                     `json:"dag_stages"`
	SizeGB         int                     `json:"size_gb"`
	Width          int                     `json:"width"`
	StripSizeBytes int64                   `json:"strip_size_bytes"`
	Variants       []PipelineVariantReport `json:"variants"`
	Fault          PipelineFaultReport     `json:"fault"`
	// DeterministicReplay records that a second full run of the
	// experiment produced a byte-identical report.
	DeterministicReplay bool `json:"deterministic_replay"`
}

// PipelineExperiment runs the kernel-DAG pushdown comparison: the
// four-stage terrain DAG executed per-pass (every intermediate raster
// written back and re-read) and pipelined (inter-stage traffic reduced
// to halo-boundary bands) under both NAS round-robin and DAS-planned
// placement, plus a crash-and-restart run of the DAS pushdown on a
// mirrored layout. Every run's grid output is verified bitwise against
// the sequential in-memory reference; the pipelined DAS run must move
// strictly fewer total bytes than its per-pass twin; the whole
// experiment runs twice and the reports must be byte-identical.
func (c Config) PipelineExperiment(smoke bool) (*Result, *PipelineRunReport, error) {
	sizeGB := c.SizesGB[0]
	if smoke {
		sizeGB = pipelineSmokeGB
	}
	first, err := replay("pipeline", func() (*PipelineRunReport, error) { return c.pipelineRun(sizeGB) })
	if err != nil {
		return nil, nil, err
	}
	first.DeterministicReplay = true

	r := &Result{
		ID: "pipeline",
		Title: fmt.Sprintf("Kernel-DAG pushdown vs per-pass (%s, %d GB)",
			first.DAG, sizeGB),
		XLabel: "variant",
		YLabel: "execution time (s) / interconnect MB",
	}
	for i, v := range first.Variants {
		x := float64(i + 1)
		r.Add("exec s: "+v.Name, x, v.ElapsedSeconds)
		r.Add("interconnect MB: "+v.Name, x, float64(v.TotalBytes)/1e6)
		note := fmt.Sprintf("%s: %.4fs, %.2f MB moved", v.Name, v.ElapsedSeconds, float64(v.TotalBytes)/1e6)
		if v.Pipelined {
			note += fmt.Sprintf("; %d/%d stages fused, %d rounds, halo %d B vs composed-offset bound %d B (ratio %.3f)",
				v.FusedStages, v.Stages, v.Rounds, v.AchievedHaloBytes, v.LowerBoundBytes, v.LowerBoundRatio)
		}
		r.Notes = append(r.Notes, note)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("fault run: crash+restart mid-pushdown, %d redispatches, %d catch-ups, output still bitwise-identical",
			first.Fault.Redispatches, first.Fault.CatchUps),
		"all grid outputs verified bitwise against the sequential DAG reference",
		"report byte-identical across two full replays")
	return r, first, nil
}

// pipelineRun is one complete pass over the four variants and the fault
// run; PipelineExperiment runs it twice and byte-compares the reports.
func (c Config) pipelineRun(sizeGB int) (*PipelineRunReport, error) {
	d := PipelineDAG()
	elems := int64(sizeGB) * BytesPerPaperGB / grid.ElemSize
	if elems%int64(c.Width) != 0 {
		return nil, fmt.Errorf("pipeline: %d GB does not tile width %d", sizeGB, c.Width)
	}
	g := workload.Terrain(c.Width, int(elems/int64(c.Width)), c.Seed)
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), g)
	if err != nil {
		return nil, err
	}
	wantRed := kernels.ReduceStriped(kernels.Stats{}, want, c.StripSize/grid.ElemSize)

	report := &PipelineRunReport{
		DAG:            d.Name,
		DAGStages:      len(d.Nodes),
		SizeGB:         sizeGB,
		Width:          c.Width,
		StripSizeBytes: c.StripSize,
	}
	variants := []struct {
		name    string
		scheme  core.Scheme
		perPass bool
	}{
		{"nas-per-pass", core.NAS, true},
		{"nas-pipelined", core.NAS, false},
		{"das-per-pass", core.DAS, true},
		{"das-pipelined", core.DAS, false},
	}
	for _, v := range variants {
		vr, err := c.pipelineVariantRun(v.name, v.scheme, v.perPass, d, g, want, wantRed)
		if err != nil {
			return nil, fmt.Errorf("pipeline %s: %w", v.name, err)
		}
		report.Variants = append(report.Variants, vr)
	}

	// The headline claim: the pushdown's whole point is removing the
	// intermediate writeback, so under the same DAS placement it must
	// move strictly fewer bytes than the per-pass reference.
	byName := make(map[string]*PipelineVariantReport)
	for i := range report.Variants {
		byName[report.Variants[i].Name] = &report.Variants[i]
	}
	piped, per := byName["das-pipelined"], byName["das-per-pass"]
	if piped.TotalBytes >= per.TotalBytes {
		return nil, fmt.Errorf("pipeline: pushdown moved %d bytes, per-pass %d — pushdown must move strictly fewer",
			piped.TotalBytes, per.TotalBytes)
	}
	// Round-robin grants no local halo, so the NAS pushdown's achieved
	// traffic is directly comparable to the unreplicated-placement
	// bound. (The DAS-planned layout prepays halos through replication
	// at ingest and may legitimately undercut it.)
	if rr := byName["nas-pipelined"]; rr.AchievedHaloBytes < rr.LowerBoundBytes {
		return nil, fmt.Errorf("pipeline: round-robin achieved halo bytes %d below the composed-offset bound %d",
			rr.AchievedHaloBytes, rr.LowerBoundBytes)
	}

	fr, err := c.pipelineFaultRun(d, g, want, wantRed)
	if err != nil {
		return nil, fmt.Errorf("pipeline fault run: %w", err)
	}
	report.Fault = fr
	return report, nil
}

// pipelineSystem deploys a fresh platform with the input raster placed
// under the given layout (nil plans the DAS improved layout for the
// chain's first kernel).
func (c Config) pipelineSystem(g *grid.Grid, lay layout.Layout) (*core.System, error) {
	cfg, err := c.platform(c.Nodes)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if lay == nil {
		lay, err = sys.PlanLayout("gaussian-filter", g.W, grid.ElemSize, c.StripSize, g.SizeBytes(), 0)
		if err != nil {
			sys.Close()
			return nil, err
		}
	}
	if _, err := sys.IngestGrid("input", g, lay, c.StripSize); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// pipelineVariantRun executes the DAG once on a fresh platform and
// verifies its output against the sequential reference.
func (c Config) pipelineVariantRun(name string, scheme core.Scheme, perPass bool, d kernels.DAG, g, want *grid.Grid, wantRed []float64) (PipelineVariantReport, error) {
	var lay layout.Layout
	if scheme == core.NAS {
		lay = layout.NewRoundRobin(c.Nodes / 2)
	}
	sys, err := c.pipelineSystem(g, lay)
	if err != nil {
		return PipelineVariantReport{}, err
	}
	defer sys.Close()
	rep, err := sys.ExecuteDAG(core.DAGRequest{
		DAG: d, Input: "input", Output: "output",
		Scheme: scheme, PerPass: perPass, DisablePrediction: !perPass,
	})
	if err != nil {
		return PipelineVariantReport{}, err
	}
	if rep.Pipelined == perPass {
		return PipelineVariantReport{}, fmt.Errorf("Pipelined=%v with perPass=%v", rep.Pipelined, perPass)
	}
	got, err := sys.FetchGrid(rep.Output)
	if err != nil {
		return PipelineVariantReport{}, err
	}
	if !got.Equal(want) {
		return PipelineVariantReport{}, fmt.Errorf("grid output diverged from the sequential DAG reference")
	}
	if err := pipelineCheckReduce(rep.Reduce, wantRed, rep.Pipelined); err != nil {
		return PipelineVariantReport{}, err
	}
	vr := PipelineVariantReport{
		Name:           name,
		Scheme:         scheme.String(),
		Pipelined:      rep.Pipelined,
		ElapsedSeconds: rep.ExecTime.Seconds(),
		TotalBytes:     pipelineTotalBytes(rep.Traffic),
		Reduce:         rep.Reduce,
		OutputVerified: true,
	}
	if rep.Pipelined {
		vr.Stages = rep.Run.Stages
		vr.FusedStages = rep.Run.FusedStages
		vr.Rounds = rep.Run.Rounds
		vr.FetchBytes = rep.Run.FetchBytes
		vr.ExchangeBytes = rep.Run.ExchangeBytes
		vr.AchievedHaloBytes = rep.Run.AchievedHaloBytes
		vr.LowerBoundBytes = rep.Run.LowerBoundBytes
		vr.LowerBoundRatio = rep.Run.LowerBoundRatio()
	}
	return vr, nil
}

// pipelineFaultRun crashes a storage server halfway through the DAS
// pushdown and restarts it shortly after — the restart wipes the
// server's in-memory pipeline state, so recovery must both redispatch
// the dead server's strips and catch lost lineage up from the durable
// input. The input rides the fully mirrored grouped layout so every
// strip keeps a live copy throughout.
func (c Config) pipelineFaultRun(d kernels.DAG, g, want *grid.Grid, wantRed []float64) (PipelineFaultReport, error) {
	servers := c.Nodes / 2
	probe := layout.NewLocator(grid.ElemSize, c.StripSize, layout.NewRoundRobin(servers))
	halo := probe.RequiredHalo(int64(c.Width) + 1)
	mirrored := layout.NewGroupedReplicated(servers, halo, halo)
	req := core.DAGRequest{
		DAG: d, Input: "input", Output: "output",
		Scheme: core.DAS, DisablePrediction: true,
	}

	healthy, err := c.pipelineSystem(g, mirrored)
	if err != nil {
		return PipelineFaultReport{}, err
	}
	healthyRep, err := healthy.ExecuteDAG(req)
	healthy.Close()
	if err != nil {
		return PipelineFaultReport{}, fmt.Errorf("healthy: %w", err)
	}

	sys, err := c.pipelineSystem(g, mirrored)
	if err != nil {
		return PipelineFaultReport{}, err
	}
	defer sys.Close()
	const crashed = 1
	crashAt := healthyRep.ExecTime / 2
	plan := fault.Plan{Events: []fault.Event{
		{At: crashAt, Kind: fault.Crash, Server: crashed},
		{At: crashAt + restartDelay, Kind: fault.Restart, Server: crashed},
	}}
	if err := sys.Clu.InstallFaultPlan(plan); err != nil {
		return PipelineFaultReport{}, err
	}
	rep, err := sys.ExecuteDAG(req)
	if err != nil {
		return PipelineFaultReport{}, fmt.Errorf("crashed run: %w", err)
	}
	if !rep.Pipelined {
		return PipelineFaultReport{}, fmt.Errorf("crashed run fell back to per-pass: %s", rep.DegradedReason)
	}
	got, err := sys.FetchGrid(rep.Output)
	if err != nil {
		return PipelineFaultReport{}, err
	}
	if !got.Equal(want) {
		return PipelineFaultReport{}, fmt.Errorf("crashed run diverged from the sequential DAG reference")
	}
	if err := pipelineCheckReduce(rep.Reduce, wantRed, true); err != nil {
		return PipelineFaultReport{}, err
	}
	if rep.Run.Redispatches+rep.Run.CatchUps == 0 {
		return PipelineFaultReport{}, fmt.Errorf("crash at %v triggered no recovery — the fault never bit", crashAt)
	}
	return PipelineFaultReport{
		HealthySeconds: healthyRep.ExecTime.Seconds(),
		CrashedSeconds: rep.ExecTime.Seconds(),
		Redispatches:   rep.Run.Redispatches,
		CatchUps:       rep.Run.CatchUps,
		FaultEvents:    sys.Clu.FaultLog.Len(),
		OutputVerified: true,
	}, nil
}

// pipelineCheckReduce verifies the terminal statistics vector. The
// pushdown's canonical ascending-strip merge reproduces ReduceStriped
// exactly; the per-pass reference merges per-server partials, so its
// float sums agree only up to merge order (count/min/max stay exact).
func pipelineCheckReduce(got, want []float64, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("reduce length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		if !exact && (i == kernels.StatSum || i == kernels.StatSumSq) &&
			math.Abs(got[i]-want[i]) <= 1e-9*math.Abs(want[i]) {
			continue
		}
		return fmt.Errorf("reduce[%d] = %v, want %v", i, got[i], want[i])
	}
	return nil
}

func pipelineTotalBytes(m map[metrics.TrafficClass]int64) int64 {
	var sum int64
	for _, b := range m {
		sum += b
	}
	return sum
}
