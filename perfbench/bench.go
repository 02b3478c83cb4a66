package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// benchWorkload is one benchmark input set. A workload is a cycle of variants;
// each round runs one variant as a fresh, fully deterministic simulation,
// so every repeat of a variant must produce the same digest.
type benchWorkload interface {
	// prepare generates the seed's inputs and sequential references.
	prepare() error
	// cycle is the number of distinct variants; round i runs i % cycle.
	cycle() int
	// round runs variant v, checks its outputs, and reports it. tr is nil
	// on untraced rounds.
	round(v int, tr *tracer) (roundResult, error)
	// probe times the layers the workload's inputs exercise, outside any
	// simulation (traced runs only).
	probe(l *ledger)
}

// workloadSpec names a workload and builds it at full or test scale.
type workloadSpec struct {
	name string
	full func(seed uint64) benchWorkload
	tiny func(seed uint64) benchWorkload
}

var workloadSpecs = []workloadSpec{
	{"fig11", func(s uint64) benchWorkload { return newFig11(s, fig11Full) }, func(s uint64) benchWorkload { return newFig11(s, fig11Tiny) }},
	{"rpc", func(s uint64) benchWorkload { return newRPC(s, rpcFull, false) }, func(s uint64) benchWorkload { return newRPC(s, rpcTiny, false) }},
	{"rpc-faults", func(s uint64) benchWorkload { return newRPC(s, rpcFull, true) }, func(s uint64) benchWorkload { return newRPC(s, rpcTiny, true) }},
	{"tenants", func(s uint64) benchWorkload { return newTenants(s, tenantsFull) }, func(s uint64) benchWorkload { return newTenants(s, tenantsTiny) }},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// options configures one benchmark run.
type options struct {
	name     string
	seed     uint64
	build    func(seed uint64) benchWorkload
	duration time.Duration
	setups   int
	trace    bool
	traceDir string
}

// roundResult is what one round reports. Everything except the ledger's
// host-side entries is a simulation output.
type roundResult struct {
	attempted, completed, failed int64
	// simNs is the simulated time the round adds to sim_s.
	simNs int64
	// lat holds one simulated latency per completed operation, as the
	// benchmark's own clients measured it from issue to completion.
	lat []int64
	// netBytes counts simulated client↔server and server↔server bytes.
	netBytes int64
	events   uint64
	// digest folds every simulated output; a repeat of the same variant
	// must reproduce it exactly.
	digest uint64
	layers ledger
}

// hostSide accumulates wall time and work over a set of timed rounds.
type hostSide struct {
	rounds    int
	completed int64
	events    uint64
	wall      time.Duration
	// secs holds every round's wall seconds and ops one round's completed
	// operations, both by variant.
	secs [][]float64
	ops  []int64
}

func newHostSide(variants int) hostSide {
	return hostSide{secs: make([][]float64, variants), ops: make([]int64, variants)}
}

func (h *hostSide) add(v int, r roundResult, d time.Duration) {
	h.rounds++
	h.completed += r.completed
	h.events += r.events
	h.wall += d
	h.secs[v] = append(h.secs[v], d.Seconds())
	h.ops[v] = r.completed
}

// rate is completed operations per wall second over one cycle, each
// variant timed by the median of its rounds, so a burst of interference
// from other work on the host that slows a few rounds does not move it.
func (h hostSide) rate() float64 {
	var ops, secs float64
	for v, s := range h.secs {
		if len(s) > 0 {
			ops += float64(h.ops[v])
			secs += median(s)
		}
	}
	return ratio(ops, secs)
}

// result is a finished run, ready to print.
type result struct {
	name                         string
	trace                        bool
	attempted, completed, failed int64
	setup                        []float64
	cycle                        []roundResult
	lat                          []int64 // the first cycle's latencies, sorted
	plain, traced                hostSide
	gc                           gcDelta
	peakRSS                      float64
	layers                       ledger
	tracer                       *tracer
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runBenchmark sets the workload up o.setups times, then runs the timed
// region: whole cycles of rounds until o.duration has passed (and, when
// tracing, at least one untraced and one traced cycle, alternating).
func runBenchmark(o options) (*result, error) {
	res := &result{name: o.name, trace: o.trace}
	var w benchWorkload
	var warm roundResult
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		w = o.build(o.seed)
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.name, err)
		}
		r, err := w.round(0, nil)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up round: %w", o.name, err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		res.attempted += r.attempted
		res.completed += r.completed
		res.failed += r.failed
		if i > 0 && r.digest != warm.digest {
			res.failed += r.attempted - r.failed
		}
		warm = r
	}
	runtime.GC()

	var tr *tracer
	if o.trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		tr = newTracer()
		res.tracer = tr
	}
	n := w.cycle()
	res.cycle = make([]roundResult, n)
	res.plain, res.traced = newHostSide(n), newHostSide(n)
	gc0 := readGC()
	start := time.Now()
	var profile *os.File
	for i := 0; ; i++ {
		v := i % n
		if v == 0 && i > 0 && time.Since(start) >= o.duration && (!o.trace || i >= 2*n) {
			break
		}
		traced := o.trace && (i/n)%2 == 1
		var rtr *tracer
		if traced {
			rtr = tr
			if v == 0 {
				f, err := startProfile(o.traceDir, i/n)
				if err != nil {
					return nil, err
				}
				profile = f
			}
		}
		t0 := time.Now()
		r, err := w.round(v, rtr)
		d := time.Since(t0)
		if traced && v == n-1 {
			pprof.StopCPUProfile()
			if err := profile.Close(); err != nil {
				return nil, err
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", o.name, i, err)
		}
		if traced {
			res.traced.add(v, r, d)
		} else {
			res.plain.add(v, r, d)
		}
		res.attempted += r.attempted
		res.completed += r.completed
		res.failed += r.failed
		switch {
		case i < n:
			res.cycle[v] = r
			res.layers.merge(r.layers)
		case r.digest != res.cycle[v].digest:
			// A repeat that simulates differently breaks the determinism
			// contract: none of its operations can be trusted.
			res.failed += r.attempted - r.failed
		}
		if i == 0 && r.digest != warm.digest {
			res.failed += r.attempted - r.failed
		}
	}
	res.gc = readGC().sub(gc0)
	res.peakRSS = peakRSSMiB()
	for _, c := range res.cycle {
		res.lat = append(res.lat, c.lat...)
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	if o.trace {
		w.probe(&res.layers)
		if err := tr.write(filepath.Join(o.traceDir, "spans.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func startProfile(dir string, cycle int) (*os.File, error) {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu-%03d.pprof", cycle)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// metric is one named, united value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's JSON object.
func (r *result) output() map[string]any {
	var ms []namedMetric
	if r.trace {
		ms = r.perLayer()
	} else {
		ms = r.endToEnd()
	}
	metrics := make(map[string]metric, len(ms))
	for _, m := range ms {
		metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

type namedMetric struct {
	name, unit string
	value      float64
}

// endToEnd computes the metrics a user of the system sees.
func (r *result) endToEnd() []namedMetric {
	var simNs, net int64
	for _, c := range r.cycle {
		simNs += c.simNs
		net += c.netBytes
	}
	_, p99 := tail(r.lat)
	return []namedMetric{
		{"setup_s", "s", median(r.setup)},
		{"ops_per_s", "op/s", r.plain.rate()},
		{"peak_rss_mb", "MiB", r.peakRSS},
		{"sim_s", "sim_s", float64(simNs) / 1e9},
		{"sim_op_p50_ms", "sim_ms", float64(quantile(r.lat, 50)) / 1e6},
		{"sim_op_p99_ms", "sim_ms", float64(p99) / 1e6},
		{"net_mb", "MiB", float64(net) / mib},
		{"ok_frac", "ratio", ratio(float64(r.completed), float64(r.attempted))},
	}
}

// summary is a human-readable line printed before the result: host facts,
// the sample count behind the latency percentiles, and round counts.
func (r *result) summary() string {
	pct, _ := tail(r.lat)
	tailName := fmt.Sprintf("p%d", pct)
	if pct == 100 {
		tailName = "max"
	}
	var simNs int64
	for _, c := range r.cycle {
		simNs += c.simNs
	}
	return fmt.Sprintf("perfbench %s: go=%s num_cpu=%d gomaxprocs=%d setups=%d cycle=%d rounds=%d+%d traced latency_samples=%d tail=%s sim_s=%.6f",
		r.name, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), len(r.setup), len(r.cycle),
		r.plain.rounds, r.traced.rounds, len(r.lat), tailName, float64(simNs)/1e9)
}
