// Package experiments regenerates the paper's evaluation (§IV): one
// runnable experiment per table and figure, each producing the same rows
// or series the paper reports, plus the ablations DESIGN.md calls out.
//
// Scale: the paper ran 24–60 GB datasets on a 24–60 node cluster; this
// reproduction maps 1 paper-GB to 1 simulated MiB and scales nothing else.
// Every scheme's cost is linear in bytes moved, so the scaling preserves
// every ratio and crossover while keeping a full sweep under a minute.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/workload"
)

// BytesPerPaperGB is the simulated stand-in for one of the paper's
// gigabytes.
const BytesPerPaperGB = 1 << 20

// Config parameterizes a sweep. The defaults mirror §IV-A: 24 nodes with
// a 1:1 storage:compute split, 24–60 GB data, 64 KiB strips.
type Config struct {
	// Nodes is the default total node count (half storage, half compute).
	Nodes int
	// SizesGB are the paper-scale dataset sizes to sweep.
	SizesGB []int
	// NodeSweep are the total node counts for the scalability experiment.
	NodeSweep []int
	// Width is the raster width in elements. The default of 8192 makes
	// one row exactly one 64 KiB strip, the geometry of the paper's
	// Fig. 4.
	Width int
	// StripSize is the PFS strip size.
	StripSize int64
	// Seed feeds the workload generators.
	Seed uint64
	// Platform overrides the cluster cost model; nil uses
	// cluster.Default().
	Platform *cluster.Config
}

// Default returns the paper-mirroring configuration.
func Default() Config {
	return Config{
		Nodes:     24,
		SizesGB:   []int{24, 36, 48, 60},
		NodeSweep: []int{24, 36, 48, 60},
		Width:     8192,
		StripSize: 64 * 1024,
		Seed:      42,
	}
}

// Kernels evaluated by the paper's figures, in its naming.
var paperKernels = []struct {
	op    string
	label string
}{
	{"flow-routing", "flow_routing"},
	{"flow-accumulation", "flow_accumulation"},
	{"gaussian-filter", "gaussian"},
}

// dataset builds the input raster for a paper-scale size.
func (c Config) dataset(op string, sizeGB int) (*grid.Grid, error) {
	bytes := int64(sizeGB) * BytesPerPaperGB
	elems := bytes / grid.ElemSize
	if elems%int64(c.Width) != 0 {
		return nil, fmt.Errorf("experiments: %d GB does not tile width %d", sizeGB, c.Width)
	}
	h := int(elems / int64(c.Width))
	switch op {
	case "gaussian-filter", "median-filter":
		return workload.Image(c.Width, h, c.Seed, 0.05), nil
	default:
		return workload.Terrain(c.Width, h, c.Seed), nil
	}
}

func (c Config) platform(nodes int) (cluster.Config, error) {
	if nodes%2 != 0 || nodes <= 0 {
		return cluster.Config{}, fmt.Errorf("experiments: node count %d must be positive and even (1:1 split)", nodes)
	}
	cfg := cluster.Default()
	if c.Platform != nil {
		cfg = *c.Platform
	}
	cfg.ComputeNodes = nodes / 2
	cfg.StorageNodes = nodes / 2
	return cfg, nil
}

// RunOne executes one (scheme, op, size, nodes) cell on a fresh platform
// and returns the operation report. Inputs are pre-placed as each scheme
// expects: round-robin for TS and NAS, the DAS-planned improved layout for
// DAS (write-time arrangement; the reconfiguration ablation measures the
// migrate-in-place alternative).
func (c Config) RunOne(scheme core.Scheme, op string, sizeGB, nodes int) (core.Report, error) {
	cfg, err := c.platform(nodes)
	if err != nil {
		return core.Report{}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Report{}, err
	}
	defer sys.Close()
	g, err := c.dataset(op, sizeGB)
	if err != nil {
		return core.Report{}, err
	}
	var lay layout.Layout = layout.NewRoundRobin(sys.FS.Servers())
	if scheme == core.DAS {
		lay, err = sys.PlanLayout(op, g.W, grid.ElemSize, c.StripSize, g.SizeBytes(), 0)
		if err != nil {
			return core.Report{}, err
		}
	}
	if _, err := sys.IngestGrid("input", g, lay, c.StripSize); err != nil {
		return core.Report{}, err
	}
	return sys.Execute(core.Request{Op: op, Input: "input", Output: "output", Scheme: scheme})
}

// replay runs one report-producing pass of an experiment twice and
// byte-compares the marshalled reports: the determinism contract says a
// second full run reproduces the first exactly, so any divergence is an
// error. It returns the first report.
func replay[R any](name string, run func() (*R, error)) (*R, error) {
	first, err := run()
	if err != nil {
		return nil, err
	}
	second, err := run()
	if err != nil {
		return nil, fmt.Errorf("%s replay: %w", name, err)
	}
	b1, err := json.Marshal(first)
	if err != nil {
		return nil, err
	}
	b2, err := json.Marshal(second)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(b1, b2) {
		return nil, fmt.Errorf("%s: replay diverged — the run is not deterministic", name)
	}
	return first, nil
}

// Row is one measured cell of a result series.
type Row struct {
	Series string
	X      float64
	Value  float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // "fig10", "tableI", ...
	Title  string
	XLabel string
	YLabel string
	Rows   []Row
	Notes  []string
}

// Add appends a measurement.
func (r *Result) Add(series string, x, value float64) {
	r.Rows = append(r.Rows, Row{Series: series, X: x, Value: value})
}

// Value looks up a cell.
func (r *Result) Value(series string, x float64) (float64, bool) {
	for _, row := range r.Rows {
		if row.Series == series && row.X == x {
			return row.Value, true
		}
	}
	return 0, false
}

// Series lists distinct series names in first-appearance order.
func (r *Result) Series() []string {
	var out []string
	seen := make(map[string]bool)
	for _, row := range r.Rows {
		if !seen[row.Series] {
			seen[row.Series] = true
			out = append(out, row.Series)
		}
	}
	return out
}

// Xs lists distinct x values in ascending order.
func (r *Result) Xs() []float64 {
	seen := make(map[float64]bool)
	var out []float64
	for _, row := range r.Rows {
		if !seen[row.X] {
			seen[row.X] = true
			out = append(out, row.X)
		}
	}
	sort.Float64s(out)
	return out
}

// Table renders the result as an aligned text table: one row per x value,
// one column per series, followed by the notes.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(r.ID), r.Title)
	series := r.Series()
	headers := append([]string{r.XLabel}, series...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	xs := r.Xs()
	cells := make([][]string, len(xs))
	for i, x := range xs {
		cells[i] = make([]string, len(headers))
		cells[i][0] = trimFloat(x)
		for j, s := range series {
			if v, ok := r.Value(s, x); ok {
				cells[i][j+1] = fmt.Sprintf("%.4f", v)
			} else {
				cells[i][j+1] = "-"
			}
		}
		for j, cell := range cells[i] {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	writeRow := func(cols []string) {
		for j, cell := range cols {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	for _, row := range cells {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Chart renders an ASCII horizontal bar chart: one group per x value, one
// bar per series, scaled to the result's maximum value. It gives dasbench
// output the at-a-glance shape of the paper's figures.
func (r *Result) Chart(width int) string {
	if width < 10 {
		width = 10
	}
	var maxV float64
	for _, row := range r.Rows {
		if row.Value > maxV {
			maxV = row.Value
		}
	}
	if maxV <= 0 {
		return ""
	}
	series := r.Series()
	labelW := len(r.XLabel)
	for _, s := range series {
		if len(s) > labelW {
			labelW = len(s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (bar = %s)\n", strings.ToUpper(r.ID), r.Title, r.YLabel)
	for _, x := range r.Xs() {
		fmt.Fprintf(&b, "%s = %s\n", r.XLabel, trimFloat(x))
		for _, s := range series {
			v, ok := r.Value(s, x)
			if !ok {
				continue
			}
			n := int(v / maxV * float64(width))
			if n < 1 && v > 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %-*s |%s %s\n", labelW, s, strings.Repeat("█", n), trimValue(v))
		}
	}
	return b.String()
}

func trimValue(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// CSV renders the raw rows for plotting.
func (r *Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s,%s\n", safeCSV(r.XLabel), safeCSV(r.YLabel))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%g\n", safeCSV(row.Series), trimFloat(row.X), row.Value)
	}
	return b.String()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func safeCSV(s string) string {
	return strings.NewReplacer(",", ";", "\n", " ").Replace(s)
}
