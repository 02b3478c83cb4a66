package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// rpcSize is the platform and request volume of the rpc workloads.
type rpcSize struct {
	compute, storage int
	stripsPerServer  int
	// opsPerClient is how many sequential RPCs each compute node issues
	// per round.
	opsPerClient int
	// variants is the cycle length: each variant draws its request streams
	// (and fault-loss pattern) from its own sub-seed, so a cycle's
	// simulated metrics average several independent rounds.
	variants int
}

// Three clients per server keep every server's queue busy, so simulated
// latencies spread continuously and their percentiles move with the seed.
var (
	rpcFull = rpcSize{compute: 384, storage: 128, stripsPerServer: 8, opsPerClient: 256, variants: 4}
	rpcTiny = rpcSize{compute: 12, storage: 4, stripsPerServer: 8, opsPerClient: 48, variants: 2}
)

const (
	// faultTimeout replaces the default 250 ms per-attempt deadline with
	// one about eight times the workload's p99 RPC latency. At 250 ms each
	// lost message added a quarter second to one client, and the round's
	// makespan jumped by whole timeouts from one seed to the next.
	faultTimeout = 20 * sim.Millisecond
	// faultRetries replaces the default two re-sends per timed-out RPC: a
	// replicated write crosses four or more messages per attempt, and at
	// 0.1% loss three lost attempts in a row happen every few hundred
	// thousand writes, which would fail the write outright.
	faultRetries = 5
	rpcFile      = "rpc"
	rpcStripSize = 1 << 10
	// rpcWriteEvery makes one RPC in eight a write: 7 reads to 1 write.
	rpcWriteEvery = 8
)

// rpc drives whole-strip RPCs from every compute node against one
// grouped-replicated file. Every write rewrites the strip's seed-derived
// canonical content, so every read, failover reads included, must return
// exactly that content. With faults the same mix runs as one process per
// client through the fault-tolerant calls, under a crash+restart, a slow
// NIC and message loss.
type rpc struct {
	size   rpcSize
	seed   uint64
	faults bool
	canon  [][]byte // expected content of each strip
	stored [][]byte // content preloaded onto the servers (canon unless a test corrupts it)
}

func newRPC(seed uint64, size rpcSize, faults bool) *rpc {
	return &rpc{size: size, seed: seed, faults: faults}
}

func (w *rpc) cycle() int { return w.size.variants }

func (w *rpc) strips() int64 { return int64(w.size.storage * w.size.stripsPerServer) }

func (w *rpc) prepare() error {
	w.canon = make([][]byte, w.strips())
	for s := range w.canon {
		w.canon[s] = stripContent(w.seed, int64(s))
	}
	w.stored = w.canon
	return nil
}

// stripContent is strip s's canonical content: a pure function of (seed, s).
func stripContent(seed uint64, s int64) []byte {
	rng := workload.NewRNG(seed ^ uint64(s+1)*0x9e3779b97f4a7c15)
	b := make([]byte, rpcStripSize)
	for i := 0; i < len(b); i += 8 {
		v := rng.Next()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// faultPlan crashes one server and restarts it 30 ms later (inside the
// read failover and write down-window budgets), slows another's NIC to a
// quarter, and drops 0.1% of remote messages from 2 ms on. The loss draws
// follow variant v's sub-seed.
func (w *rpc) faultPlan(v int) fault.Plan {
	return fault.Plan{
		Seed: int64(w.subSeed(v)>>2) + 1,
		Events: []fault.Event{
			{At: 2 * sim.Millisecond, Kind: fault.Loss, Server: -1, Frac: 0.001},
			{At: 5 * sim.Millisecond, Kind: fault.SlowNIC, Server: 1, Factor: 0.25},
			{At: 10 * sim.Millisecond, Kind: fault.Crash, Server: w.size.storage / 2},
			{At: 40 * sim.Millisecond, Kind: fault.Restart, Server: w.size.storage / 2},
		},
	}
}

// rpcRun is one round's shared state.
type rpcRun struct {
	w     *rpc
	sys   *core.System
	lay   layout.Layout
	eng   *sim.Engine
	lat   []int64
	bad   int64 // reads that returned other than the canonical content
	errs  int64 // RPCs that returned an error
	first error
}

// pick draws client c's next strip and whether the RPC is a write.
func (r *rpcRun) pick(rng *workload.RNG, i int) (strip int64, write bool) {
	return rng.Intn(r.w.strips()), i%rpcWriteEvery == rpcWriteEvery-1
}

func (r *rpcRun) fail(err error) {
	r.errs++
	if r.first == nil {
		r.first = err
	}
}

func (r *rpcRun) readDone(strip int64, data []byte, start sim.Time) {
	if !bytes.Equal(data, r.w.canon[strip]) {
		r.bad++
	}
	pfs.ReleaseBuffer(data)
	r.lat = append(r.lat, int64(r.eng.Now()-start))
}

// subSeed derives variant v's seed from the run's seed.
func (w *rpc) subSeed(v int) uint64 { return w.seed*0x9e3779b97f4a7c15 + uint64(v+1) }

// clientRNG seeds client c's private request stream in variant v.
func (w *rpc) clientRNG(v, c int) *workload.RNG {
	return workload.NewRNG(w.subSeed(v) ^ uint64(c+1)*0xbf58476d1ce4e5b9)
}

// taskClient is one compute node's request stream as a task chain, the
// fault-free fast path: each response continuation issues the next RPC.
type taskClient struct {
	run   *rpcRun
	node  int
	rng   *workload.RNG
	i     int
	strip int64
	start sim.Time
	// onRead/onWrite are bound once so per-RPC calls allocate nothing.
	onRead  func([]byte, error)
	onWrite func(error)
}

func (c *taskClient) RunTask() { c.next() }

func (c *taskClient) next() {
	r := c.run
	if c.i == r.w.size.opsPerClient {
		return
	}
	strip, write := r.pick(c.rng, c.i)
	c.i++
	c.strip, c.start = strip, r.eng.Now()
	target := r.lay.Primary(strip)
	if write {
		r.sys.FS.WriteStripToTask(c.node, target, rpcFile, strip, r.w.canon[strip], true, c.onWrite)
		return
	}
	r.sys.FS.ReadStripFromTask(c.node, target, rpcFile, strip, 0, 0, c.onRead)
}

func (c *taskClient) readDone(data []byte, err error) {
	if err != nil {
		c.run.fail(err)
	} else {
		c.run.readDone(c.strip, data, c.start)
	}
	c.next()
}

func (c *taskClient) writeDone(err error) {
	if err != nil {
		c.run.fail(err)
	} else {
		c.run.lat = append(c.run.lat, int64(c.run.eng.Now()-c.start))
	}
	c.next()
}

// procClient is one compute node's request stream as a process using the
// fault-tolerant calls (timeouts, retries, failover reads).
func (r *rpcRun) procClient(v, c int) func(p *sim.Proc) {
	node := r.sys.Clu.ComputeID(c)
	rng := r.w.clientRNG(v, c)
	return func(p *sim.Proc) {
		for i := 0; i < r.w.size.opsPerClient; i++ {
			strip, write := r.pick(rng, i)
			start := p.Now()
			target := r.lay.Primary(strip)
			if write {
				if err := r.sys.FS.WriteStripTo(p, node, target, rpcFile, strip, r.w.canon[strip], true); err != nil {
					r.fail(err)
					continue
				}
				r.lat = append(r.lat, int64(p.Now()-start))
				continue
			}
			data, err := r.sys.FS.ReadStripFrom(p, node, target, rpcFile, strip, 0, 0)
			if err != nil {
				r.fail(err)
				continue
			}
			r.readDone(strip, data, start)
		}
	}
}

func (w *rpc) platform() cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes = w.size.compute
	cfg.StorageNodes = w.size.storage
	return cfg
}

// round builds a fresh platform, preloads every strip copy, and runs every
// client's variant-v request stream to completion.
func (w *rpc) round(v int, tr *tracer) (roundResult, error) {
	tr.nextOp()
	rd := tr.begin("rpc.round")
	defer tr.end(rd)

	sp := tr.begin("core.NewSystem")
	sys, err := core.NewSystem(w.platform())
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	defer sys.Close()
	width := rpcStripSize / grid.ElemSize
	size := w.strips() * rpcStripSize
	sp = tr.begin("core.PlanLayout")
	lay, err := sys.PlanLayout("gaussian-filter", width, grid.ElemSize, rpcStripSize, size, 0)
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	sp = tr.begin("pfs.Preload")
	_, err = sys.FS.Create(rpcFile, size, lay, pfs.CreateOptions{StripSize: rpcStripSize, Width: width, Height: int(w.strips()), ElemSize: grid.ElemSize})
	if err == nil {
		for s := int64(0); s < w.strips(); s++ {
			for _, h := range layout.Holders(lay, s) {
				sys.FS.Server(h).Preload(rpcFile, s, w.stored[s])
			}
		}
	}
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	eng := sys.Clu.Eng
	run := &rpcRun{w: w, sys: sys, lay: lay, eng: eng, lat: make([]int64, 0, w.size.compute*w.size.opsPerClient)}
	queue := metrics.NewLatencySketch()
	if w.faults {
		if err := sys.Clu.InstallFaultPlan(w.faultPlan(v)); err != nil {
			return roundResult{}, err
		}
		sys.FS.Retry.Timeout = faultTimeout
		sys.FS.Retry.Retries = faultRetries
		sys.FS.SetQueueObserver(func(_, depth int) { queue.ObserveValue(int64(depth)) })
		for c := 0; c < w.size.compute; c++ {
			eng.Spawn("rpc-client", run.procClient(v, c))
		}
	} else {
		if !sys.FS.AsyncOK() {
			return roundResult{}, errors.New("rpc: task-based client calls unavailable")
		}
		for c := 0; c < w.size.compute; c++ {
			cl := &taskClient{run: run, node: sys.Clu.ComputeID(c), rng: w.clientRNG(v, c)}
			cl.onRead, cl.onWrite = cl.readDone, cl.writeDone
			eng.ScheduleTask(0, cl)
		}
	}
	sp = tr.begin("sim.Run")
	err = eng.Run()
	tr.end(sp)
	if err != nil {
		return roundResult{}, err
	}

	attempted := int64(w.size.compute * w.size.opsPerClient)
	done := int64(len(run.lat))
	r := roundResult{
		attempted: attempted,
		completed: done - run.bad,
		failed:    attempted - (done - run.bad),
		simNs:     int64(eng.Now()),
		lat:       run.lat,
		events:    eng.Events(),
	}
	if run.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d RPCs failed, first: %v\n", run.errs, run.first)
	}
	t := sys.Clu.Traffic.Snapshot()
	r.netBytes = t[metrics.ClientToServer] + t[metrics.ServerToClient] + t[metrics.ServerToServer]

	l := &r.layers
	addTraffic(l, t)
	u := sys.Clu.UtilizationSnapshot()
	l.add("net.egress_busy_max_s", u.MaxEgress().Seconds())
	l.add("net.ingress_busy_max_s", u.MaxIngress().Seconds())
	l.add("disk.busy_max_s", u.MaxDisk().Seconds())
	rec := sys.Clu.Recovery
	l.add("fault.timeouts", float64(rec.Timeouts()))
	l.add("fault.retries", float64(rec.Retries()))
	l.add("fault.failover_reads", float64(rec.FailoverReads()))
	l.add("fault.dropped_msgs", float64(rec.DroppedMessages()))
	l.max("pfs.queue_p99", float64(queue.QuantileValue(99)))

	d := newDigest()
	d.int(r.simNs)
	d.int(int64(r.events))
	d.int(run.bad)
	d.ints(run.lat)
	for _, c := range metrics.Classes() {
		d.int(t[c])
	}
	d.int(rec.Timeouts())
	d.int(rec.Retries())
	d.int(rec.FailoverReads())
	d.int(rec.DroppedMessages())
	r.digest = d.h
	return r, nil
}

// probe is empty: the rpc workloads carry no raster for the kernel, codec
// and prediction probes.
func (w *rpc) probe(*ledger) {}
