package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
)

// DefaultTenantsConfig is the full-scale multi-tenant run: over a
// thousand concurrent Zipf-skewed streams across hundreds of files, with
// a hot-set rotation a third of the way in and a read-heavy to
// write-heavy flip two thirds in.
func DefaultTenantsConfig() tenants.Config {
	return tenants.Config{
		Tenants:          1024,
		Files:            256,
		StripsPerFileMin: 4,
		StripsPerFileMax: 12,
		OpsPerTenant:     15,
		ZipfSkew:         1.1,
		Seed:             42,
		Mix:              tenants.Mix{Read: 70, Write: 20, Offload: 10},
		Phases: []tenants.Phase{
			{FromOp: 5, Mix: tenants.Mix{Read: 70, Write: 20, Offload: 10}, Rotate: 128},
			{FromOp: 10, Mix: tenants.Mix{Read: 25, Write: 60, Offload: 15}, Rotate: 128},
		},
		MaxQueueDepth: 24,
		// A closed loop with over a thousand streams on twelve servers is
		// oversubscribed severalfold: deferral is the normal backpressure
		// path (streams wait out bursts at the gate), and shedding is the
		// last resort after ~100 ms of sustained saturation. Pacing the
		// loop with a think time keeps the offered load heavy but not
		// degenerate.
		ThinkTime:   sim.Millisecond,
		ShedBackoff: sim.Millisecond,
		ShedRetries: 96,
	}
}

// SmokeTenantsConfig is the CI-sized variant of the same shape: small
// enough for the race detector and the bench-smoke target, still
// exercising skew, phases, admission, and every subsystem.
func SmokeTenantsConfig() tenants.Config {
	cfg := DefaultTenantsConfig()
	cfg.Tenants = 96
	cfg.Files = 32
	cfg.OpsPerTenant = 8
	cfg.Phases = []tenants.Phase{
		{FromOp: 3, Mix: tenants.Mix{Read: 70, Write: 20, Offload: 10}, Rotate: 16},
		{FromOp: 6, Mix: tenants.Mix{Read: 25, Write: 60, Offload: 15}, Rotate: 16},
	}
	cfg.MaxQueueDepth = 12
	return cfg
}

// tenantsStrictScale is the stream count above which the experiment
// enforces its acceptance comparisons as hard errors; smoke-sized runs
// report the same numbers without failing on them.
const tenantsStrictScale = 512

// tenantsCacheBudget sizes the per-server halo cache for the adaptive
// variant: roughly the hot head of the Zipf distribution per server
// (128 strips ≈ a dozen hot files), a few percent of the full dataset.
func tenantsCacheBudget(tcfg tenants.Config) int64 {
	return 128 * tcfg.StripSize
}

// tenantsControlCfg calibrates the unified controller to the tenant
// operation-latency scale (strip reads ~1.5 ms, contended offloads far
// above): the per-file admission gate opens only for files whose
// operation tail actually crosses the congestion threshold.
func tenantsControlCfg() control.Config {
	return control.Config{
		SampleEvery: 5 * sim.Millisecond,
		LatencyHigh: 4 * sim.Millisecond,
		LatencyLow:  sim.Millisecond,
		Cooldown:    10 * sim.Millisecond,
	}
}

// tenantsRestripeCfg tunes the migrator for many small files: a modest
// evidence threshold (one hot offload's halo traffic crosses it) and an
// in-flight budget that keeps background copies from starving the
// foreground streams.
func tenantsRestripeCfg(tcfg tenants.Config) restripe.Config {
	return restripe.Config{
		MinObservedBytes: 4 * tcfg.StripSize,
		MaxInFlightBytes: 2 * tcfg.StripSize,
	}
}

// TenantsVariantReport is one configuration's view of the multi-tenant
// run.
type TenantsVariantReport struct {
	Name           string  `json:"name"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Ops            int64   `json:"ops"`
	Reads          int64   `json:"reads"`
	Writes         int64   `json:"writes"`
	Offloads       int64   `json:"offloads"`
	Sheds          int64   `json:"sheds"`
	Deferrals      int64   `json:"deferrals"`
	Bytes          int64   `json:"bytes"`
	ThroughputMBps float64 `json:"throughput_mb_per_s"`
	// RemoteBytes is the dependent-halo traffic offloads moved between
	// servers — the cost adaptive placement exists to remove.
	RemoteBytes   int64 `json:"offload_remote_bytes"`
	CacheHitBytes int64 `json:"cache_hit_bytes"`
	// QueueP99 / QueueMax are the worst server's arrival-sampled depth
	// tail and maximum.
	QueueP99 int64 `json:"queue_depth_p99"`
	QueueMax int64 `json:"queue_depth_max"`
	// Fairness: the cross-tenant p99 spread.
	FairMinP99Nanos int64 `json:"fair_min_p99_ns"`
	FairMaxP99Nanos int64 `json:"fair_max_p99_ns"`
	FairSpreadNanos int64 `json:"fair_spread_ns"`
	// Adaptive-subsystem activity (zero for the static variants).
	RestripesPlanned   int64              `json:"restripes_planned"`
	RestripesCompleted int64              `json:"restripes_completed"`
	AdmissionsAllowed  int64              `json:"admissions_allowed"`
	AdmissionsDenied   int64              `json:"admissions_denied"`
	Promotions         int64              `json:"promotions"`
	Demotions          int64              `json:"demotions"`
	DrainSeconds       float64            `json:"restripe_drain_seconds"`
	TopFiles           []tenants.FileOps  `json:"top_files"`
	HotFiles           []control.FileStat `json:"hot_files,omitempty"`
}

// TenantsRunReport is the JSON-able record of one multi-tenant
// experiment (BENCH_tenants.json).
type TenantsRunReport struct {
	Tenants        int                    `json:"tenants"`
	Files          int                    `json:"files"`
	OpsPerTenant   int                    `json:"ops_per_tenant"`
	ZipfSkew       float64                `json:"zipf_skew"`
	StripSizeBytes int64                  `json:"strip_size_bytes"`
	MaxQueueDepth  int                    `json:"max_queue_depth"`
	Phases         []tenants.Phase        `json:"phases"`
	Op             string                 `json:"op"`
	Variants       []TenantsVariantReport `json:"variants"`
	// DeterministicReplay records that a second full run of the
	// experiment produced a byte-identical report.
	DeterministicReplay bool `json:"deterministic_replay"`
}

// tenantsVariant selects one configuration of the comparison.
type tenantsVariant struct {
	name     string
	bounded  bool // admission gate on
	planned  bool // static DAS-planned per-file layouts
	adaptive bool // cache + restripe + unified controller over round-robin
}

var tenantsVariants = []tenantsVariant{
	// Unbounded NAS first: the saturation baseline admission is judged
	// against.
	{name: "nas-unbounded"},
	{name: "nas", bounded: true},
	{name: "das-static", bounded: true, planned: true},
	{name: "das-adaptive", bounded: true, adaptive: true},
}

// TenantsExperiment runs the multi-tenant comparison: blind active
// storage over round-robin (bounded and unbounded admission), statically
// DAS-planned layouts, and the adaptive stack (halo cache + online
// restriping + unified p99 controller with per-file admission) reacting
// to the same skewed, phase-shifting streams. The whole experiment runs
// twice and the reports must be byte-identical. At full scale the
// acceptance comparisons are enforced: admission must bound the queue
// tail the unbounded run blows through, and the adaptive stack must beat
// bounded NAS on both aggregate throughput and cross-tenant p99 spread.
func (c Config) TenantsExperiment(tcfg tenants.Config) (*Result, *TenantsRunReport, error) {
	tcfg, err := tcfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	first, err := replay("tenants", func() (*TenantsRunReport, error) { return c.tenantsRun(tcfg) })
	if err != nil {
		return nil, nil, err
	}
	first.DeterministicReplay = true

	byName := make(map[string]*TenantsVariantReport)
	for i := range first.Variants {
		byName[first.Variants[i].Name] = &first.Variants[i]
	}
	unb, nas := byName["nas-unbounded"], byName["nas"]
	adp := byName["das-adaptive"]
	strict := tcfg.Tenants >= tenantsStrictScale
	if strict {
		if nas.QueueP99 > 2*int64(tcfg.MaxQueueDepth) {
			return nil, nil, fmt.Errorf("tenants: admission failed to bound the queue tail: p99 depth %d vs bound %d",
				nas.QueueP99, tcfg.MaxQueueDepth)
		}
		if unb.QueueP99 <= nas.QueueP99 {
			return nil, nil, fmt.Errorf("tenants: unbounded queue p99 %d not above bounded %d — saturation never materialized",
				unb.QueueP99, nas.QueueP99)
		}
		if adp.ThroughputMBps <= nas.ThroughputMBps {
			return nil, nil, fmt.Errorf("tenants: adaptive throughput %.2f MB/s does not beat NAS %.2f MB/s",
				adp.ThroughputMBps, nas.ThroughputMBps)
		}
		if adp.FairSpreadNanos >= nas.FairSpreadNanos {
			return nil, nil, fmt.Errorf("tenants: adaptive p99 spread %v not below NAS %v",
				sim.Time(adp.FairSpreadNanos), sim.Time(nas.FairSpreadNanos))
		}
	}

	r := &Result{
		ID: "tenants",
		Title: fmt.Sprintf("Multi-tenant skewed streams (%d tenants, %d files, Zipf %.2f)",
			tcfg.Tenants, tcfg.Files, tcfg.ZipfSkew),
		XLabel: "variant",
		YLabel: "throughput (MB/s) / p99 spread (ms) / queue p99",
	}
	for i, v := range first.Variants {
		x := float64(i + 1)
		r.Add("throughput MB/s: "+v.Name, x, v.ThroughputMBps)
		r.Add("p99 spread ms: "+v.Name, x, sim.Time(v.FairSpreadNanos).Seconds()*1e3)
		r.Add("queue p99: "+v.Name, x, float64(v.QueueP99))
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: %d ops (%d shed) in %.3fs, %.2f MB/s, queue p99 %d (max %d), tenant p99 spread %v",
			v.Name, v.Ops, v.Sheds, v.ElapsedSeconds, v.ThroughputMBps, v.QueueP99, v.QueueMax,
			sim.Time(v.FairSpreadNanos)))
	}
	if adp != nil && nas != nil {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"adaptive vs NAS: throughput x%.2f, spread x%.2f, halo bytes x%.2f (%d restripes, %d cache promotions)",
			safeRatio(adp.ThroughputMBps, nas.ThroughputMBps),
			safeRatio(float64(adp.FairSpreadNanos), float64(nas.FairSpreadNanos)),
			safeRatio(float64(adp.RemoteBytes), float64(nas.RemoteBytes)),
			adp.RestripesCompleted, adp.Promotions))
	}
	r.Notes = append(r.Notes, "report byte-identical across two full replays")
	return r, first, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tenantsRun is one complete pass over every variant; TenantsExperiment
// runs it twice and byte-compares the reports.
func (c Config) tenantsRun(tcfg tenants.Config) (*TenantsRunReport, error) {
	report := &TenantsRunReport{
		Tenants:        tcfg.Tenants,
		Files:          tcfg.Files,
		OpsPerTenant:   tcfg.OpsPerTenant,
		ZipfSkew:       tcfg.ZipfSkew,
		StripSizeBytes: tcfg.StripSize,
		MaxQueueDepth:  tcfg.MaxQueueDepth,
		Phases:         tcfg.Phases,
		Op:             tcfg.Op,
	}
	for _, v := range tenantsVariants {
		vr, err := c.tenantsVariantRun(v, tcfg)
		if err != nil {
			return nil, fmt.Errorf("tenants %s: %w", v.name, err)
		}
		report.Variants = append(report.Variants, vr)
	}
	return report, nil
}

// tenantsVariantRun deploys one fresh platform, wires the variant's
// subsystems, replays the streams, and reports.
func (c Config) tenantsVariantRun(v tenantsVariant, tcfg tenants.Config) (TenantsVariantReport, error) {
	cfg, err := c.platform(c.Nodes)
	if err != nil {
		return TenantsVariantReport{}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return TenantsVariantReport{}, err
	}
	defer sys.Close()

	if !v.bounded {
		tcfg.MaxQueueDepth = 0
	}
	if v.adaptive {
		if err := sys.EnableCache(cache.Config{BudgetBytes: tenantsCacheBudget(tcfg)}); err != nil {
			return TenantsVariantReport{}, err
		}
		if err := sys.EnableRestripe(tenantsRestripeCfg(tcfg)); err != nil {
			return TenantsVariantReport{}, err
		}
		if err := sys.EnableControl(tenantsControlCfg()); err != nil {
			return TenantsVariantReport{}, err
		}
	}

	eng, err := tenants.New(sys.Clu, sys.FS, tcfg)
	if err != nil {
		return TenantsVariantReport{}, err
	}
	width := int(tcfg.StripSize / grid.ElemSize)
	if v.planned {
		eng.SetLayouts(func(i int, strips int64) layout.Layout {
			lay, perr := sys.PlanLayout(tcfg.Op, width, grid.ElemSize, tcfg.StripSize, strips*tcfg.StripSize, 0)
			if perr != nil {
				return layout.NewRoundRobin(sys.FS.Servers())
			}
			return lay
		})
	}
	if v.adaptive {
		eng.SetFileObserver(sys.Control)
		if pat, ok := sys.Features.Lookup(tcfg.Op); ok {
			eng.SetOffloadObserver(func(file string, remoteBytes int64) {
				m, ok := sys.FS.Meta(file)
				if !ok {
					return
				}
				sys.Restripe.Observe(file, pat, predict.Params{
					ElemSize:     m.ElemSize,
					StripSize:    m.StripSize,
					FileSize:     m.Size,
					Width:        m.Width,
					OutputFactor: 1,
				}, remoteBytes)
			})
		}
	}

	if _, err := sys.RunProc("tenants-setup", eng.Setup); err != nil {
		return TenantsVariantReport{}, err
	}
	elapsed, err := sys.RunProc("tenants-run", eng.Run)
	if err != nil {
		return TenantsVariantReport{}, err
	}
	var drain sim.Time
	if v.adaptive {
		converged, dt, derr := sys.DrainRestripe(restripeDrainTimeout)
		if derr != nil {
			return TenantsVariantReport{}, derr
		}
		if !converged {
			return TenantsVariantReport{}, fmt.Errorf("restripe drain did not converge within %v", restripeDrainTimeout)
		}
		drain = dt
	}

	tot := eng.Totals()
	fair := eng.Fairness()
	vr := TenantsVariantReport{
		Name:            v.name,
		ElapsedSeconds:  elapsed.Seconds(),
		Ops:             tot.Ops,
		Reads:           tot.Reads,
		Writes:          tot.Writes,
		Offloads:        tot.Offloads,
		Sheds:           tot.Sheds,
		Deferrals:       tot.Deferrals,
		Bytes:           tot.Bytes,
		RemoteBytes:     tot.RemoteBytes,
		FairMinP99Nanos: fair.MinP99Nanos,
		FairMaxP99Nanos: fair.MaxP99Nanos,
		FairSpreadNanos: fair.SpreadNanos,
		DrainSeconds:    drain.Seconds(),
		TopFiles:        eng.TopFiles(5),
	}
	if elapsed > 0 {
		vr.ThroughputMBps = float64(tot.Bytes) / elapsed.Seconds() / 1e6
	}
	for _, q := range eng.QueueStats() {
		if q.P99 > vr.QueueP99 {
			vr.QueueP99 = q.P99
		}
		if q.Max > vr.QueueMax {
			vr.QueueMax = q.Max
		}
	}
	if v.adaptive {
		vr.CacheHitBytes = sys.Clu.CacheStats.HitBytes()
		rs := sys.Clu.RestripeStats
		vr.RestripesPlanned = rs.Planned()
		vr.RestripesCompleted = rs.Completed()
		vr.AdmissionsAllowed, vr.AdmissionsDenied = sys.Control.Admissions()
		for _, st := range sys.Control.Stats() {
			vr.Promotions += st.Promotions
			vr.Demotions += st.Demotions
		}
		if hot := sys.Control.FileStats(); len(hot) > 0 {
			top := make([]control.FileStat, 0, 5)
			// FileStats sorts by name; keep the five hottest by ops for the
			// report instead.
			all := append([]control.FileStat(nil), hot...)
			for len(top) < 5 && len(all) > 0 {
				best := 0
				for i := range all {
					if all[i].Ops > all[best].Ops {
						best = i
					}
				}
				top = append(top, all[best])
				all = append(all[:best], all[best+1:]...)
			}
			vr.HotFiles = top
		}
	}
	return vr, nil
}
