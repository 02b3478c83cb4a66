package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/workload"
)

// fig11Size is the raster and platform of the Fig. 11 workload.
type fig11Size struct {
	width, rows int
	// rowJitter lets the seed add seed%rowJitter rows, so simulated
	// metrics depend on the seed (the DES cost model is data-independent);
	// seeds equal mod rowJitter give the same simulated metrics.
	rowJitter int
	nodes     int
	stripSize int64
}

// fig11Full is the paper's smallest Fig. 11 point scaled 1 GB → 1 MiB: a
// 24 MiB raster whose 8192-element rows are one 64 KiB strip each, on
// 12 storage + 12 compute nodes.
var fig11Full = fig11Size{width: 8192, rows: 384, rowJitter: 8, nodes: 24, stripSize: 64 << 10}

var fig11Tiny = fig11Size{width: 256, rows: 48, rowJitter: 4, nodes: 8, stripSize: 2 << 10}

var fig11Schemes = []core.Scheme{core.TS, core.NAS, core.DAS}

// fig11 runs every scheme × kernel cell of Fig. 11 on a fresh platform:
// one cell is one operation, nine cells are one cycle.
type fig11 struct {
	size    fig11Size
	seed    uint64
	terrain *grid.Grid // flow-routing and flow-accumulation input
	image   *grid.Grid // gaussian-filter input
	refs    map[string]*grid.Grid
	genS    float64
	refS    float64
}

func newFig11(seed uint64, size fig11Size) *fig11 { return &fig11{size: size, seed: seed} }

func (w *fig11) cycle() int { return len(fig11Schemes) * len(kernelOps) }

func (w *fig11) input(op string) *grid.Grid {
	if op == "gaussian-filter" {
		return w.image
	}
	return w.terrain
}

func (w *fig11) prepare() error {
	rows := w.size.rows + int(w.seed%uint64(w.size.rowJitter))
	t0 := time.Now()
	w.terrain = workload.Terrain(w.size.width, rows, w.seed)
	w.image = workload.Image(w.size.width, rows, w.seed, 0.05)
	w.genS = time.Since(t0).Seconds()
	t0 = time.Now()
	reg := kernels.Default()
	w.refs = make(map[string]*grid.Grid, len(kernelOps))
	for _, op := range kernelOps {
		k, ok := reg.Lookup(op)
		if !ok {
			return fmt.Errorf("kernel %q not registered", op)
		}
		w.refs[op] = kernels.Apply(k, w.input(op))
	}
	w.refS = time.Since(t0).Seconds()
	return nil
}

func (w *fig11) platform() cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes = w.size.nodes / 2
	cfg.StorageNodes = w.size.nodes / 2
	return cfg
}

// round runs cell v: a fresh platform, the input ingested round-robin
// (TS, NAS) or under the DAS-planned layout, the operation, and a
// bit-for-bit comparison of the fetched output with the sequential
// reference.
func (w *fig11) round(v int, tr *tracer) (roundResult, error) {
	scheme := fig11Schemes[v/len(kernelOps)]
	op := kernelOps[v%len(kernelOps)]
	in := w.input(op)
	tr.nextOp()
	cell := tr.begin("fig11.cell")
	defer tr.end(cell)

	sp := tr.begin("core.NewSystem")
	sys, err := core.NewSystem(w.platform())
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	defer sys.Close()
	var lay layout.Layout = layout.NewRoundRobin(sys.FS.Servers())
	if scheme == core.DAS {
		sp = tr.begin("core.PlanLayout")
		lay, err = sys.PlanLayout(op, in.W, grid.ElemSize, w.size.stripSize, in.SizeBytes(), 0)
		tr.end(sp)
		if err != nil {
			return roundResult{}, err
		}
	}
	sp = tr.begin("core.IngestGrid")
	_, err = sys.IngestGrid("input", in, lay, w.size.stripSize)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	sp = tr.begin("core.Execute")
	rep, err := sys.Execute(core.Request{Op: op, Input: "input", Output: "output", Scheme: scheme})
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	sp = tr.begin("core.FetchGrid")
	out, err := sys.FetchGrid("output")
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	sp = tr.begin("bench.verify")
	ok := out.Equal(w.refs[op])
	tr.end(sp)

	r := roundResult{attempted: 1, simNs: int64(rep.ExecTime), events: sys.Clu.Eng.Events()}
	if ok {
		r.completed = 1
		r.lat = []int64{int64(rep.ExecTime)}
	} else {
		r.failed = 1
	}
	t := rep.Traffic
	r.netBytes = t[metrics.ClientToServer] + t[metrics.ServerToClient] + t[metrics.ServerToServer]

	l := &r.layers
	name := strings.ToLower(scheme.String())
	ph := rep.Stats.PhaseMax
	l.add("active."+name+".fetch_sim_ms", ph.Fetch.Seconds()*1e3)
	l.add("active."+name+".compute_sim_ms", ph.Compute.Seconds()*1e3)
	l.add("active."+name+".write_sim_ms", ph.Write.Seconds()*1e3)
	l.add("active."+name+".forward_sim_ms", ph.Forward.Seconds()*1e3)
	l.add("active."+name+".remote_mb", float64(rep.Stats.RemoteBytes))
	addTraffic(l, t)
	l.add("net.egress_busy_max_s", rep.ServerLoad.MaxEgress().Seconds())
	l.add("net.ingress_busy_max_s", rep.ServerLoad.MaxIngress().Seconds())
	l.add("disk.busy_max_s", rep.ServerLoad.MaxDisk().Seconds())
	if rep.Decision != nil {
		l.add("predict.decided", 1)
		if rep.Decision.Offload {
			l.add("predict.accepted", 1)
		}
	}
	l.max("workload.gen_s", w.genS)
	l.max("kernels.ref_s", w.refS)

	d := newDigest()
	d.int(int64(rep.ExecTime))
	d.int(int64(r.events))
	d.int(r.completed)
	for _, c := range metrics.Classes() {
		d.int(t[c])
	}
	d.int(rep.Stats.RemoteBytes)
	d.int(rep.Stats.Strips)
	if rep.Offloaded {
		d.int(1)
	}
	r.digest = d.h
	return r, nil
}

// addTraffic records a traffic snapshot's per-class bytes.
func addTraffic(l *ledger, t map[metrics.TrafficClass]int64) {
	l.add("net.c2s_bytes", float64(t[metrics.ClientToServer]))
	l.add("net.s2c_bytes", float64(t[metrics.ServerToClient]))
	l.add("net.s2s_bytes", float64(t[metrics.ServerToServer]))
	l.add("disk.read_bytes", float64(t[metrics.DiskRead]))
	l.add("disk.write_bytes", float64(t[metrics.DiskWrite]))
}

// probeReps is how many times each probe runs; probes report the median.
const probeReps = 3

// probe times the kernels, the strip codec and the prediction core on
// this workload's own rasters.
func (w *fig11) probe(l *ledger) {
	reg := kernels.Default()
	for _, op := range kernelOps {
		k, _ := reg.Lookup(op)
		in := w.input(op)
		band := grid.BandOf(in, 0, in.Len(), 0, in.Len())
		out := make([]float64, in.Len())
		l.max("kernels."+op+".mb_per_s", rate(float64(in.SizeBytes()), func() {
			kernels.ParallelApplyBand(k, band, out)
		}))
	}
	in := w.terrain
	raw := grid.FloatsToBytes(in.Data)
	floats := make([]float64, in.Len())
	band := grid.NewBand(in.W, in.Len(), 0, in.Len(), 0, in.Len())
	n := float64(in.SizeBytes())
	l.max("grid.encode_mb_per_s", rate(n, func() { raw = grid.FloatsToBytesInto(raw, in.Data) }))
	l.max("grid.decode_mb_per_s", rate(n, func() { floats, _ = grid.FloatsFromBytesInto(floats, raw) }))
	l.max("grid.fill_mb_per_s", rate(n, func() { band.FillBytes(0, raw) }))

	servers := w.size.nodes / 2
	var decideNs []float64
	for _, op := range kernelOps {
		k, _ := reg.Lookup(op)
		pat := kernels.Pattern(k)
		p := predict.Params{ElemSize: grid.ElemSize, StripSize: w.size.stripSize, FileSize: in.SizeBytes(), Width: in.W, OutputFactor: 1}
		planned, _, err := predict.RecommendLayout(pat, p, servers, core.DefaultMaxOverhead)
		if err != nil {
			continue
		}
		for _, lay := range []layout.Layout{layout.NewRoundRobin(servers), planned} {
			decideNs = append(decideNs, perCall(func() { _, _ = predict.Decide(pat, p, lay) }))
		}
	}
	l.max("predict.decide_us", median(decideNs)/1e3)
}

// rate runs fn probeReps times and returns the median throughput in MB/s
// for n bytes per call.
func rate(n float64, fn func()) float64 {
	var rs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		fn()
		rs = append(rs, n/1e6/time.Since(t0).Seconds())
	}
	return median(rs)
}

// perCall returns the median wall nanoseconds per call of fn, timed in
// batches long enough to read the clock accurately.
func perCall(fn func()) float64 {
	const batch = 64
	var ns []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(ns)
}
