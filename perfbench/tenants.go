package main

import (
	"fmt"
	"os"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
)

// tenantsSize is the population of the tenants workload.
type tenantsSize struct {
	streams, files, opsPerStream int
	// subruns is the cycle length: each variant replays the streams under
	// its own sub-seed, so a cycle averages several independent runs.
	subruns int
	nodes   int
}

var (
	tenantsFull = tenantsSize{streams: 64, files: 16, opsPerStream: 15, subruns: 8, nodes: 24}
	tenantsTiny = tenantsSize{streams: 16, files: 8, opsPerStream: 6, subruns: 2, nodes: 8}
)

// restripeDrain bounds how long a round waits for migrations to finish.
const restripeDrain = 60 * sim.Second

// tenantsWorkload is the das-adaptive multi-tenant run: closed-loop
// Zipf-skewed streams over round-robin files with the halo cache, online
// restriping and the p99 controller deployed and admission bounded. One
// operation is one stream operation attempt; shed attempts count against
// ok_frac.
type tenantsWorkload struct {
	size tenantsSize
	seed uint64
}

func newTenants(seed uint64, size tenantsSize) *tenantsWorkload {
	return &tenantsWorkload{size: size, seed: seed}
}

func (w *tenantsWorkload) cycle() int { return w.size.subruns }

// prepare has nothing to generate up front: each round's engine derives
// its files and streams from the variant's sub-seed during Setup.
func (w *tenantsWorkload) prepare() error { return nil }

func (w *tenantsWorkload) config(v int) tenants.Config {
	half := w.size.files / 2
	return tenants.Config{
		Tenants:          w.size.streams,
		Files:            w.size.files,
		StripsPerFileMin: 4,
		StripsPerFileMax: 12,
		OpsPerTenant:     w.size.opsPerStream,
		ZipfSkew:         1.1,
		Seed:             w.seed*0x9e3779b97f4a7c15 + uint64(v+1),
		Mix:              tenants.Mix{Read: 70, Write: 20, Offload: 10},
		Phases: []tenants.Phase{
			{FromOp: w.size.opsPerStream / 3, Mix: tenants.Mix{Read: 70, Write: 20, Offload: 10}, Rotate: half},
			{FromOp: 2 * w.size.opsPerStream / 3, Mix: tenants.Mix{Read: 25, Write: 60, Offload: 15}, Rotate: half},
		},
		MaxQueueDepth: 24,
		ThinkTime:     sim.Millisecond,
		ShedBackoff:   sim.Millisecond,
		ShedRetries:   400,
	}
}

// latencyTap records every completed operation's simulated latency on its
// way to the controller's per-file heat signal.
type latencyTap struct {
	next tenants.FileObserver
	lat  []int64
}

func (t *latencyTap) ObserveFileOp(file string, lat sim.Time) {
	t.lat = append(t.lat, int64(lat))
	t.next.ObserveFileOp(file, lat)
}

// round replays every stream of variant v on a fresh platform, drains the
// restriper, and checks that every attempt either completed or was shed.
func (w *tenantsWorkload) round(v int, tr *tracer) (roundResult, error) {
	tr.nextOp()
	rd := tr.begin("tenants.round")
	defer tr.end(rd)

	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = w.size.nodes/2, w.size.nodes/2
	sp := tr.begin("core.NewSystem")
	sys, err := core.NewSystem(cfg)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	defer sys.Close()
	tcfg, err := w.config(v).Normalize()
	if err != nil {
		return roundResult{}, err
	}
	sp = tr.begin("core.Enable")
	err = w.enable(sys, tcfg)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	eng, err := tenants.New(sys.Clu, sys.FS, tcfg)
	if err != nil {
		return roundResult{}, err
	}
	tap := &latencyTap{next: sys.Control}
	eng.SetFileObserver(tap)
	pat, ok := sys.Features.Lookup(tcfg.Op)
	if !ok {
		return roundResult{}, fmt.Errorf("no kernel features for %q", tcfg.Op)
	}
	eng.SetOffloadObserver(func(file string, remoteBytes int64) {
		m, ok := sys.FS.Meta(file)
		if !ok {
			return
		}
		sys.Restripe.Observe(file, pat, predict.Params{
			ElemSize: m.ElemSize, StripSize: m.StripSize, FileSize: m.Size, Width: m.Width, OutputFactor: 1,
		}, remoteBytes)
	})

	sp = tr.begin("tenants.Setup")
	_, err = sys.RunProc("tenants-setup", eng.Setup)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	before := sys.Clu.Traffic.Snapshot()
	load := sys.Clu.UtilizationSnapshot()
	sp = tr.begin("tenants.Run")
	elapsed, err := sys.RunProc("tenants-run", eng.Run)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	after := sys.Clu.Traffic.Snapshot()
	load = sys.Clu.UtilizationSnapshot().Sub(load)
	sp = tr.begin("core.DrainRestripe")
	converged, drain, err := sys.DrainRestripe(restripeDrain)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}

	sp = tr.begin("bench.verify")
	tot := eng.Totals()
	attempted := int64(w.size.streams * w.size.opsPerStream)
	r := roundResult{attempted: attempted, simNs: int64(elapsed), lat: tap.lat, events: sys.Clu.Eng.Events()}
	switch {
	case tot.Ops+tot.Sheds != attempted, int64(len(tap.lat)) != tot.Ops:
		fmt.Fprintf(os.Stderr, "perfbench: tenants accounting: %d attempted, %d completed + %d shed, %d latencies\n",
			attempted, tot.Ops, tot.Sheds, len(tap.lat))
		r.failed = attempted
	case !converged:
		fmt.Fprintf(os.Stderr, "perfbench: restripe drain did not converge within %v\n", restripeDrain)
		r.failed = attempted
	default:
		r.completed = tot.Ops
	}
	tr.end(sp)

	t := make(map[metrics.TrafficClass]int64, len(after))
	for c, b := range after {
		t[c] = b - before[c]
	}
	r.netBytes = t[metrics.ClientToServer] + t[metrics.ServerToClient] + t[metrics.ServerToServer]

	l := &r.layers
	addTraffic(l, t)
	l.add("net.egress_busy_max_s", load.MaxEgress().Seconds())
	l.add("net.ingress_busy_max_s", load.MaxIngress().Seconds())
	l.add("disk.busy_max_s", load.MaxDisk().Seconds())
	cs := sys.Clu.CacheStats
	l.add("cache.hits", float64(cs.Hits()))
	l.add("cache.misses", float64(cs.Misses()))
	l.add("cache.hit_bytes", float64(cs.HitBytes()))
	for _, st := range sys.Control.Stats() {
		l.add("control.promotions", float64(st.Promotions))
		l.add("control.demotions", float64(st.Demotions))
	}
	_, denied := sys.Control.Admissions()
	l.add("control.admissions_denied", float64(denied))
	l.add("restripe.completed", float64(sys.Clu.RestripeStats.Completed()))
	l.add("restripe.drain_sim_s", drain.Seconds())
	l.add("tenants.sheds", float64(tot.Sheds))
	l.add("tenants.deferrals", float64(tot.Deferrals))
	for _, q := range eng.QueueStats() {
		l.max("tenants.queue_p99", float64(q.P99))
	}
	l.max("tenants.fair_spread_ms", float64(eng.Fairness().SpreadNanos)/1e6)

	d := newDigest()
	d.int(r.simNs)
	d.int(int64(r.events))
	d.int(int64(drain))
	d.ints(tap.lat)
	for _, c := range metrics.Classes() {
		d.int(t[c])
	}
	d.int(tot.Ops)
	d.int(tot.Sheds)
	d.int(tot.Deferrals)
	d.int(tot.Bytes)
	d.int(cs.HitBytes())
	d.int(sys.Clu.RestripeStats.Completed())
	r.digest = d.h
	return r, nil
}

// enable deploys the adaptive stack: cache sized to the Zipf head,
// restriper tuned for many small files, and the p99 controller calibrated
// to tenant operation latencies, enabled last so it adopts both.
func (w *tenantsWorkload) enable(sys *core.System, tcfg tenants.Config) error {
	if err := sys.EnableCache(cache.Config{BudgetBytes: 128 * tcfg.StripSize}); err != nil {
		return err
	}
	if err := sys.EnableRestripe(restripe.Config{MinObservedBytes: 4 * tcfg.StripSize, MaxInFlightBytes: 2 * tcfg.StripSize}); err != nil {
		return err
	}
	return sys.EnableControl(control.Config{
		SampleEvery: 5 * sim.Millisecond,
		LatencyHigh: 4 * sim.Millisecond,
		LatencyLow:  sim.Millisecond,
		Cooldown:    10 * sim.Millisecond,
	})
}

// probe is empty: the tenants workload's files are generated inside the
// engine, so there is no raster of its own to probe.
func (w *tenantsWorkload) probe(*ledger) {}
