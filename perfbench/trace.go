package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a public function of the
// system. Parent is the index of the enclosing span, -1 at top level; Op
// identifies the operation (or round) the call served.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	open   int // innermost open span, -1 when none
	op     int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1} }

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name:    name,
		StartNs: time.Since(t.origin).Nanoseconds(),
		Parent:  t.open,
		Op:      t.op,
	})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].EndNs = time.Since(t.origin).Nanoseconds()
	t.open = t.spans[i].Parent
}

// selfSeconds sums each span name's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Per-layer metric names. Each names its module; README.md maps each to
// the end-to-end metric it should move and on which workload. Entries a
// workload does not exercise read 0. run.py adds the cpu.*_frac shares,
// which come from the CPU profile.
var (
	kernelOps = []string{"flow-routing", "flow-accumulation", "gaussian-filter"}
	schemes   = []string{"ts", "nas", "das"}
	phases    = []string{"fetch", "compute", "write", "forward"}
)

// spanLayers maps span names to the per-layer host self-time metrics.
var spanLayers = []struct{ span, metric string }{
	{"core.NewSystem", "core.new_system_s"},
	{"core.IngestGrid", "core.ingest_s"},
	{"core.Execute", "core.execute_s"},
	{"core.FetchGrid", "core.fetch_s"},
	{"bench.verify", "bench.verify_s"},
}

// perLayer assembles every per-layer metric from the first cycle's
// simulated counters, the traced rounds' spans, the probes and the Go
// runtime's accounting over the timed region.
func (r *result) perLayer() []namedMetric {
	l := &r.layers
	var attempted int64
	var events uint64
	for _, c := range r.cycle {
		attempted += c.attempted
		events += c.events
	}
	ms := []namedMetric{
		{"workload.gen_s", "s", l.get("workload.gen_s")},
	}
	for _, k := range kernelOps {
		ms = append(ms, namedMetric{"kernels." + k + ".mb_per_s", "MB/s", l.get("kernels." + k + ".mb_per_s")})
	}
	ms = append(ms,
		namedMetric{"kernels.ref_s", "s", l.get("kernels.ref_s")},
		namedMetric{"grid.fill_mb_per_s", "MB/s", l.get("grid.fill_mb_per_s")},
		namedMetric{"grid.encode_mb_per_s", "MB/s", l.get("grid.encode_mb_per_s")},
		namedMetric{"grid.decode_mb_per_s", "MB/s", l.get("grid.decode_mb_per_s")},
	)
	self := r.tracer.selfSeconds()
	tracedOps := float64(r.traced.completed)
	for _, s := range spanLayers {
		ms = append(ms, namedMetric{s.metric, "s", ratio(self[s.span], tracedOps)})
	}
	ms = append(ms,
		namedMetric{"predict.decide_us", "us", l.get("predict.decide_us")},
		namedMetric{"predict.offload_accept_frac", "ratio", ratio(l.get("predict.accepted"), l.get("predict.decided"))},
	)
	for _, s := range schemes {
		for _, p := range phases {
			name := "active." + s + "." + p + "_sim_ms"
			ms = append(ms, namedMetric{name, "sim_ms", l.get(name)})
		}
		name := "active." + s + ".remote_mb"
		ms = append(ms, namedMetric{name, "MiB", l.get(name) / mib})
	}
	ms = append(ms,
		namedMetric{"net.c2s_mb", "MiB", l.get("net.c2s_bytes") / mib},
		namedMetric{"net.s2c_mb", "MiB", l.get("net.s2c_bytes") / mib},
		namedMetric{"net.s2s_mb", "MiB", l.get("net.s2s_bytes") / mib},
		namedMetric{"net.egress_busy_max_s", "sim_s", l.get("net.egress_busy_max_s")},
		namedMetric{"net.ingress_busy_max_s", "sim_s", l.get("net.ingress_busy_max_s")},
		namedMetric{"disk.read_mb", "MiB", l.get("disk.read_bytes") / mib},
		namedMetric{"disk.write_mb", "MiB", l.get("disk.write_bytes") / mib},
		namedMetric{"disk.busy_max_s", "sim_s", l.get("disk.busy_max_s")},
		namedMetric{"sim.events_per_op", "count", ratio(float64(events), float64(attempted))},
		namedMetric{"sim.ns_per_event", "ns", ratio(float64(r.plain.wall.Nanoseconds()), float64(r.plain.events))},
	)
	pct, _ := tail(r.lat)
	ms = append(ms,
		namedMetric{"sim.op_samples", "count", float64(len(r.lat))},
		namedMetric{"sim.op_tail_pct", "%", float64(pct)},
		namedMetric{"pfs.queue_p99", "count", l.get("pfs.queue_p99")},
		namedMetric{"fault.timeouts", "count", l.get("fault.timeouts")},
		namedMetric{"fault.retries", "count", l.get("fault.retries")},
		namedMetric{"fault.failover_reads", "count", l.get("fault.failover_reads")},
		namedMetric{"fault.dropped_msgs", "count", l.get("fault.dropped_msgs")},
		namedMetric{"cache.hit_frac", "ratio", ratio(l.get("cache.hits"), l.get("cache.hits")+l.get("cache.misses"))},
		namedMetric{"cache.hit_mb", "MiB", l.get("cache.hit_bytes") / mib},
		namedMetric{"control.promotions", "count", l.get("control.promotions")},
		namedMetric{"control.demotions", "count", l.get("control.demotions")},
		namedMetric{"control.admissions_denied", "count", l.get("control.admissions_denied")},
		namedMetric{"restripe.completed", "count", l.get("restripe.completed")},
		namedMetric{"restripe.drain_sim_s", "sim_s", l.get("restripe.drain_sim_s")},
		namedMetric{"tenants.sheds", "count", l.get("tenants.sheds")},
		namedMetric{"tenants.deferrals_per_op", "count", ratio(l.get("tenants.deferrals"), float64(attempted))},
		namedMetric{"tenants.queue_p99", "count", l.get("tenants.queue_p99")},
		namedMetric{"tenants.fair_spread_ms", "sim_ms", l.get("tenants.fair_spread_ms")},
	)
	ops := float64(r.plain.completed + r.traced.completed)
	ms = append(ms,
		namedMetric{"go.alloc_mb_per_op", "MiB", ratio(float64(r.gc.allocBytes)/mib, ops)},
		namedMetric{"go.allocs_per_op", "count", ratio(float64(r.gc.allocs), ops)},
		namedMetric{"go.gc_cycles", "count", float64(r.gc.cycles)},
		namedMetric{"go.gc_cpu_frac", "ratio", ratio(r.gc.gcCPU, r.gc.totalCPU)},
		namedMetric{"trace.overhead_frac", "ratio", overhead(r.traced, r.plain)},
	)
	return ms
}

// overhead is how much more wall time per operation the traced rounds
// took than the untraced ones, as a fraction of the untraced time.
func overhead(traced, plain hostSide) float64 {
	t := traced.rate()
	if t == 0 {
		return 0
	}
	return plain.rate()/t - 1
}
