package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// p99CacheBudget sizes the per-server halo cache to 2× the server's
// share of the dataset — about half its dependent working set, which
// measures 3-4× the share for the 8-neighbor kernels (each owned strip
// pulls whole-strip ranges from both neighbors, and each strip is
// pulled by both sides). Keeping the budget well under the working set
// is what makes the curve meaningful: the unpinned remainder cycles
// through LRU without ever re-hitting (the access is one pass per
// round), so only controller-pinned strips are served locally, the hit
// rate tracks the pin count, and fetch traffic persists at every scale
// so the plateau is an equilibrium rather than an artifact of the
// working set fitting.
func p99CacheBudget(sizeGB, servers int) int64 {
	per := int64(sizeGB) * BytesPerPaperGB / int64(servers)
	if b := per * 2; b > 512<<10 {
		return b
	}
	return 512 << 10
}

// defaultP99Control returns thresholds calibrated to the simulated
// platform's fetch-latency scale (p50 ≈ 5 ms, tail ≈ 7 ms on the default
// cost model): windows wide enough to collect a quorum of samples, the
// hysteresis band bracketing the observed distribution.
func defaultP99Control() control.Config {
	return control.Config{
		SampleEvery: 25 * sim.Millisecond,
		LatencyHigh: 6 * sim.Millisecond,
		LatencyLow:  sim.Millisecond,
	}
}

// P99Round is one round's view of the controlled system.
type P99Round struct {
	Round           int     `json:"round"`
	ExecTimeSeconds float64 `json:"exec_time_seconds"`
	// P99Nanos is the round's fetch-latency tail: the delta of the merged
	// cumulative sketch against the previous round's snapshot.
	P99Nanos     int64 `json:"p99_ns"`
	FetchSamples int64 `json:"fetch_samples"`
	// PinnedReplicas is the cluster-wide count of controller-pinned cache
	// entries after the round — the "replica count" of the curve.
	PinnedReplicas int `json:"pinned_replicas"`
	// Actions is the cumulative controller action count after the round;
	// two equal consecutive values mean a quiet round.
	Actions         int   `json:"actions"`
	RestripePlanned int64 `json:"restripe_planned"`
	RestripeDone    int64 `json:"restripe_completed"`
}

// P99VariantReport is one controlled configuration across the rounds.
type P99VariantReport struct {
	Name   string     `json:"name"`
	Rounds []P99Round `json:"rounds"`
	// ConvergedRound is the first round after which no controller action
	// and no restripe activity occurred (1-based; 0 = never converged).
	ConvergedRound           int   `json:"converged_round"`
	Converged                bool  `json:"converged"`
	Promotions               int64 `json:"promotions"`
	Demotions                int64 `json:"demotions"`
	CooldownSuppressed       int64 `json:"cooldown_suppressed"`
	MigrationSamplesExcluded int64 `json:"migration_samples_excluded"`
	AdmissionsAllowed        int64 `json:"admissions_allowed"`
	AdmissionsDenied         int64 `json:"admissions_denied"`
	FinalP99Nanos            int64 `json:"final_cluster_p99_ns"`
}

// P99RunReport is the JSON-able record of one p99 controller experiment
// (BENCH_p99.json).
type P99RunReport struct {
	Op               string             `json:"op"`
	SizeGB           int                `json:"size_gb"`
	Nodes            int                `json:"nodes"`
	Rounds           int                `json:"rounds"`
	CacheBudgetBytes int64              `json:"cache_budget_bytes"`
	Percentile       int                `json:"percentile"`
	LatencyHighNanos int64              `json:"latency_high_ns"`
	LatencyLowNanos  int64              `json:"latency_low_ns"`
	CooldownNanos    int64              `json:"cooldown_ns"`
	Variants         []P99VariantReport `json:"variants"`
	Verified         bool               `json:"outputs_verified"`
	// DeterministicReplay records that a second full run of the experiment
	// produced a byte-identical report.
	DeterministicReplay bool `json:"deterministic_replay"`
}

// P99Experiment reproduces DynamicCache's replica-count-vs-p99 curve on
// the unified controller: a dependent kernel over round-robin, a halo
// cache too small for the working set, and the controller pinning
// replicas as the observed fetch tail crosses the threshold. Two variants
// run — the controlled cache alone, and the controlled cache with online
// restriping behind the controller's admission gate and cool-down. Both
// must CONVERGE: after some round, zero further controller actions and
// zero further restripe activity (no promote/demote or migrate/re-migrate
// oscillation). Every round's output is verified against the sequential
// reference, and the whole experiment runs twice to prove the report is
// byte-identical.
//
// A zero ctlCfg selects thresholds calibrated to the simulated platform
// (defaultP99Control); the paper-default 500µs thresholds sit far below
// this cost model's fetch floor and would read every window as hot.
func (c Config) P99Experiment(rounds int, ctlCfg control.Config) (*Result, *P99RunReport, error) {
	if rounds < 4 {
		rounds = 4
	}
	if ctlCfg == (control.Config{}) {
		ctlCfg = defaultP99Control()
	}
	normCtl, err := ctlCfg.Normalize()
	if err != nil {
		return nil, nil, err
	}

	first, err := replay("p99", func() (*P99RunReport, error) { return c.p99Run(rounds, ctlCfg) })
	if err != nil {
		return nil, nil, err
	}
	first.DeterministicReplay = true

	r := &Result{
		ID:     "p99",
		Title:  fmt.Sprintf("Unified p99 controller over %d rounds (%s, %d GB)", rounds, first.Op, first.SizeGB),
		XLabel: "round",
		YLabel: "fetch p99 (ms) / pinned replicas",
	}
	for _, v := range first.Variants {
		for _, rd := range v.Rounds {
			r.Add(v.Name+" p99(ms)", float64(rd.Round), sim.Time(rd.P99Nanos).Seconds()*1e3)
			r.Add(v.Name+" pinned", float64(rd.Round), float64(rd.PinnedReplicas))
		}
		if !v.Converged {
			return nil, nil, fmt.Errorf("p99 %s: controller never converged (%d actions across %d rounds)",
				v.Name, v.Promotions+v.Demotions, rounds)
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: converged after round %d (%d promotions, %d demotions, %d cool-down deferrals); final cluster p99 %v",
			v.Name, v.ConvergedRound, v.Promotions, v.Demotions, v.CooldownSuppressed, sim.Time(v.FinalP99Nanos)))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("thresholds: high %v / low %v (p%d), cool-down %v, cache %s per server",
			normCtl.LatencyHigh, normCtl.LatencyLow, normCtl.Percentile, normCtl.Cooldown,
			metrics.FormatBytes(first.CacheBudgetBytes)),
		"all rounds of both variants verified byte-identical to the sequential reference",
		"report byte-identical across two full replays")
	return r, first, nil
}

// p99Run is one complete pass of the experiment; P99Experiment runs it
// twice and byte-compares the reports.
func (c Config) p99Run(rounds int, ctlCfg control.Config) (*P99RunReport, error) {
	const op = "flow-routing"
	size := c.SizesGB[0]
	servers := c.Nodes / 2

	normCtl, err := ctlCfg.Normalize()
	if err != nil {
		return nil, err
	}
	budget := p99CacheBudget(size, servers)
	report := &P99RunReport{
		Op: op, SizeGB: size, Nodes: c.Nodes, Rounds: rounds,
		CacheBudgetBytes: budget,
		Percentile:       normCtl.Percentile,
		LatencyHighNanos: int64(normCtl.LatencyHigh),
		LatencyLowNanos:  int64(normCtl.LatencyLow),
		CooldownNanos:    int64(normCtl.Cooldown),
	}

	g, err := c.dataset(op, size)
	if err != nil {
		return nil, err
	}
	k, ok := kernels.Default().Lookup(op)
	if !ok {
		return nil, fmt.Errorf("experiments: %s kernel missing", op)
	}
	want := kernels.Apply(k, g)
	rr := layout.NewRoundRobin(servers)

	for _, variant := range []struct {
		name      string
		restriped bool
	}{
		{"controlled", false},
		{"controlled+restripe", true},
	} {
		sys, err := c.buildSystem(c.Nodes, size, op, rr)
		if err != nil {
			return nil, err
		}
		if err := sys.EnableCache(cache.Config{BudgetBytes: budget}); err != nil {
			sys.Close()
			return nil, err
		}
		if variant.restriped {
			if err := sys.EnableRestripe(restripe.Config{}); err != nil {
				sys.Close()
				return nil, err
			}
		}
		// The controller is enabled last so it adopts both subsystems.
		if err := sys.EnableControl(ctlCfg); err != nil {
			sys.Close()
			return nil, err
		}

		vr := P99VariantReport{Name: variant.name}
		prev := sys.Control.MergedFetchSketch()
		for round := 0; round < rounds; round++ {
			out := fmt.Sprintf("output.%d", round)
			rep, err := sys.Execute(core.Request{Op: op, Input: "input", Output: out, Scheme: core.NAS})
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("p99 %s round %d: %w", variant.name, round, err)
			}
			got, err := sys.FetchGrid(out)
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("p99 %s round %d readback: %w", variant.name, round, err)
			}
			if !got.Equal(want) {
				sys.Close()
				return nil, fmt.Errorf("p99 %s round %d diverged from the sequential reference", variant.name, round)
			}
			if variant.restriped && sys.Restripe.ActiveCount() > 0 {
				// Let the in-flight migration finish inside the round
				// accounting, so its strip flips and cool-downs land in
				// this round's numbers, not the next one's.
				converged, _, err := sys.DrainRestripe(restripeDrainTimeout)
				if err != nil || !converged {
					sys.Close()
					return nil, fmt.Errorf("p99 %s round %d: migration did not converge: %v", variant.name, round, err)
				}
			}
			cum := sys.Control.MergedFetchSketch()
			delta := cum.Delta(prev)
			prev = cum
			pinned := 0
			for _, st := range sys.Cache.Stats() {
				pinned += st.PinnedEntries
			}
			rs := sys.Clu.RestripeStats
			vr.Rounds = append(vr.Rounds, P99Round{
				Round:           round + 1,
				ExecTimeSeconds: rep.ExecTime.Seconds(),
				P99Nanos:        int64(delta.Quantile(normCtl.Percentile)),
				FetchSamples:    delta.Count(),
				PinnedReplicas:  pinned,
				Actions:         len(sys.Control.Actions()),
				RestripePlanned: rs.Planned(),
				RestripeDone:    rs.Completed(),
			})
		}

		// Convergence: the last round that saw a controller action or any
		// restripe activity. Quiet tail of >= 2 rounds required.
		vr.ConvergedRound = 1
		for i := 1; i < len(vr.Rounds); i++ {
			cur, pre := vr.Rounds[i], vr.Rounds[i-1]
			if cur.Actions != pre.Actions || cur.RestripePlanned != pre.RestripePlanned || cur.RestripeDone != pre.RestripeDone {
				vr.ConvergedRound = cur.Round
			}
		}
		vr.Converged = rounds-vr.ConvergedRound >= 2
		for _, st := range sys.Control.Stats() {
			vr.Promotions += st.Promotions
			vr.Demotions += st.Demotions
		}
		vr.CooldownSuppressed = sys.Control.CooldownSuppressed()
		vr.MigrationSamplesExcluded = sys.Control.MigrationSamplesExcluded()
		vr.AdmissionsAllowed, vr.AdmissionsDenied = sys.Control.Admissions()
		vr.FinalP99Nanos = int64(sys.Control.ClusterP99())
		report.Variants = append(report.Variants, vr)
		sys.Close()
	}
	report.Verified = true
	return report, nil
}
