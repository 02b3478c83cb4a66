package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// restripeDrainTimeout bounds how long a variant waits for background
// migrations; the small experiment converges in simulated milliseconds.
const restripeDrainTimeout = 60 * sim.Second

// RestripeMigrationReport is the migrator's counter snapshot for one
// variant, plus the simulated time the post-round drain consumed.
type RestripeMigrationReport struct {
	Planned         int64   `json:"planned"`
	Completed       int64   `json:"completed"`
	StripsMoved     int64   `json:"strips_moved"`
	BytesCopied     int64   `json:"bytes_copied"`
	ZeroCopyFlips   int64   `json:"zero_copy_flips"`
	ThrottleStalls  int64   `json:"throttle_stalls"`
	Resumes         int64   `json:"resumes"`
	Recopies        int64   `json:"recopies"`
	ConvergeSeconds float64 `json:"converge_seconds"`
	FinalLayout     string  `json:"final_layout"`
}

// RestripeVariantReport is one scheme's measurements across the repeated
// rounds of the restripe experiment.
type RestripeVariantReport struct {
	Name             string                   `json:"name"`
	Rounds           int                      `json:"rounds"`
	ExecTimeSeconds  []float64                `json:"exec_time_seconds"`
	RemoteBytes      []int64                  `json:"remote_bytes"`
	Offloaded        []bool                   `json:"offloaded"`
	TotalRemoteBytes int64                    `json:"total_remote_bytes"`
	Migration        *RestripeMigrationReport `json:"migration,omitempty"`
}

// RestripeCrashReport records the crash-resilience demonstration: a
// storage server crashes while the migration is copying and restarts
// later; the migration parks, resumes from its cursor, and converges with
// every output byte-identical.
type RestripeCrashReport struct {
	CrashServer     int     `json:"crash_server"`
	CrashAtSeconds  float64 `json:"crash_at_seconds"`
	RestartSeconds  float64 `json:"restart_at_seconds"`
	Resumes         int64   `json:"resumes"`
	Completed       int64   `json:"completed"`
	ConvergeSeconds float64 `json:"converge_seconds"`
	Verified        bool    `json:"outputs_verified"`
}

// RestripeRunReport is the JSON-able record of one restripe experiment
// (BENCH_restripe.json).
type RestripeRunReport struct {
	Op       string                  `json:"op"`
	SizeGB   int                     `json:"size_gb"`
	Nodes    int                     `json:"nodes"`
	Rounds   int                     `json:"rounds"`
	Variants []RestripeVariantReport `json:"variants"`
	Crash    *RestripeCrashReport    `json:"crash"`
	Verified bool                    `json:"outputs_verified"`
}

// RestripeExperiment compares NAS and DAS with and without the online
// restriping subsystem on the repeated dependent-kernel workload
// (flow-routing over the unimproved round-robin layout): round one pays
// the dependent-halo traffic that existing active storage systems always
// pay, the migrator notices and moves the file to the grouped-replicated
// distribution in the background, and every later round finds its
// dependence local — for DAS, the previously rejected offload flips to an
// accepted one. Every round of every variant is verified byte-identical
// to the sequential reference, and a final section demonstrates the
// crash-safe resume of a migration interrupted mid-copy. The whole
// experiment runs twice and the reports must be byte-identical.
func (c Config) RestripeExperiment(rounds int, rcfg restripe.Config) (*Result, *RestripeRunReport, error) {
	if rounds < 2 {
		rounds = 2
	}
	report, err := replay("restripe", func() (*RestripeRunReport, error) { return c.restripeRun(rounds, rcfg) })
	if err != nil {
		return nil, nil, err
	}
	r := &Result{
		ID:     "restripe",
		Title:  fmt.Sprintf("Online restriping over %d rounds (%s, %d GB)", rounds, report.Op, report.SizeGB),
		XLabel: "round",
		YLabel: "dependent-halo bytes fetched",
	}
	for _, v := range report.Variants {
		for round, b := range v.RemoteBytes {
			r.Add(v.Name, float64(round+1), float64(b))
		}
	}
	nas, nasRe := report.Variants[0], report.Variants[1]
	dasRe := report.Variants[3]
	r.Notes = append(r.Notes,
		fmt.Sprintf("NAS fetches %s of dependent-halo bytes per round forever; with online restriping the first round's %s drop to zero after the background migration (%d strips, %s copied, converged in %.3fs simulated)",
			metrics.FormatBytes(nas.RemoteBytes[0]), metrics.FormatBytes(nasRe.RemoteBytes[0]),
			nasRe.Migration.StripsMoved, metrics.FormatBytes(nasRe.Migration.BytesCopied),
			nasRe.Migration.ConvergeSeconds),
		fmt.Sprintf("DAS over the static round-robin layout rejects the offload every round; after the online migration to %s the same request offloads with fully local dependence",
			dasRe.Migration.FinalLayout),
		"all rounds of all variants, and the migrated input itself, verified byte-identical to the sequential reference",
		fmt.Sprintf("crash demo: server %d down mid-migration; %d parked moves resumed from the cursor after restart, migration completed, outputs byte-identical",
			report.Crash.CrashServer, report.Crash.Resumes))
	return r, report, nil
}

// restripeRun is one complete pass of the experiment; RestripeExperiment
// runs it twice and byte-compares the reports.
func (c Config) restripeRun(rounds int, rcfg restripe.Config) (*RestripeRunReport, error) {
	if _, err := rcfg.Normalize(); err != nil {
		return nil, err
	}
	const op = "flow-routing"
	size := c.SizesGB[0]
	servers := c.Nodes / 2

	report := &RestripeRunReport{Op: op, SizeGB: size, Nodes: c.Nodes, Rounds: rounds}

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
	type variant struct {
		name      string
		scheme    core.Scheme
		restriped bool
	}
	variants := []variant{
		{"NAS", core.NAS, false},
		{"NAS+restripe", core.NAS, true},
		{"DAS-static", core.DAS, false},
		{"DAS+restripe", core.DAS, true},
	}
	for _, v := range variants {
		sys, err := c.buildSystem(c.Nodes, size, op, rr)
		if err != nil {
			return nil, err
		}
		if v.restriped {
			if err := sys.EnableRestripe(rcfg); err != nil {
				sys.Close()
				return nil, err
			}
		}
		vr := RestripeVariantReport{Name: v.name, Rounds: rounds}
		for round := 0; round < rounds; round++ {
			out := fmt.Sprintf("output.%d", round)
			rep, err := sys.Execute(core.Request{Op: op, Input: "input", Output: out, Scheme: v.scheme})
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("restripe %s round %d: %w", v.name, round, err)
			}
			got, err := sys.FetchGrid(out)
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("restripe %s round %d readback: %w", v.name, round, err)
			}
			if !got.Equal(want) {
				sys.Close()
				return nil, fmt.Errorf("restripe %s round %d diverged from the sequential reference", v.name, round)
			}
			vr.ExecTimeSeconds = append(vr.ExecTimeSeconds, rep.ExecTime.Seconds())
			vr.RemoteBytes = append(vr.RemoteBytes, rep.Stats.RemoteBytes)
			vr.Offloaded = append(vr.Offloaded, rep.Offloaded)
			vr.TotalRemoteBytes += rep.Stats.RemoteBytes
			if v.restriped && round == 0 {
				// Let the background migration the first round triggered
				// converge before the post-migration rounds measure it.
				converged, dt, err := sys.DrainRestripe(restripeDrainTimeout)
				if err != nil {
					sys.Close()
					return nil, fmt.Errorf("restripe %s drain: %w", v.name, err)
				}
				if !converged {
					sys.Close()
					return nil, fmt.Errorf("restripe %s: migration did not converge within %v", v.name, restripeDrainTimeout)
				}
				m, _ := sys.FS.Meta("input")
				rs := sys.Clu.RestripeStats
				vr.Migration = &RestripeMigrationReport{
					Planned: rs.Planned(), Completed: rs.Completed(),
					StripsMoved: rs.StripsMoved(), BytesCopied: rs.BytesCopied(),
					ZeroCopyFlips: rs.ZeroCopyFlips(), ThrottleStalls: rs.ThrottleStalls(),
					Resumes: rs.Resumes(), Recopies: rs.Recopies(),
					ConvergeSeconds: dt.Seconds(),
					FinalLayout:     m.Layout.Name(),
				}
			}
		}
		// Re-verify the input itself: the migration must not have changed a
		// byte of it.
		in, err := sys.FetchGrid("input")
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("restripe %s input readback: %w", v.name, err)
		}
		if !in.Equal(g) {
			sys.Close()
			return nil, fmt.Errorf("restripe %s: migration corrupted the input", v.name)
		}
		report.Variants = append(report.Variants, vr)
		sys.Close()
	}
	report.Verified = true

	nasRe, dasRe := report.Variants[1], report.Variants[3]
	last := rounds - 1
	if nasRe.RemoteBytes[last] != 0 {
		return nil, fmt.Errorf("restripe: post-migration NAS round still fetched %d dependent bytes", nasRe.RemoteBytes[last])
	}
	if !dasRe.Offloaded[last] || dasRe.Offloaded[0] {
		return nil, fmt.Errorf("restripe: DAS offload decision did not flip (round 0 %v, round %d %v)",
			dasRe.Offloaded[0], last, dasRe.Offloaded[last])
	}

	crash, err := c.restripeCrash(op, size, rr, rcfg, want, g)
	if err != nil {
		return nil, err
	}
	report.Crash = crash
	return report, nil
}

// restripeCrash interrupts a live migration with a storage-server crash
// and verifies the cursor-based resume: the migration parks while the
// server is down, resumes after the restart, and converges with the input
// and a concurrently executed round both byte-identical.
func (c Config) restripeCrash(op string, size int, rr layout.Layout, rcfg restripe.Config, want, g *grid.Grid) (*RestripeCrashReport, error) {
	sys, err := c.buildSystem(c.Nodes, size, op, rr)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	// Small batches keep the migration slow enough for the crash to land
	// mid-copy.
	rcfg.MovesPerTick = 2
	rcfg.RetryDelay = 5 * sim.Millisecond
	if err := sys.EnableRestripe(rcfg); err != nil {
		return nil, err
	}
	if _, err := sys.Execute(core.Request{Op: op, Input: "input", Output: "crash.trigger", Scheme: core.NAS}); err != nil {
		return nil, fmt.Errorf("restripe crash trigger: %w", err)
	}
	if sys.Restripe.ActiveCount() == 0 {
		return nil, fmt.Errorf("restripe crash: no migration admitted")
	}
	crashAt := 200 * sim.Microsecond
	restartAt := 40 * sim.Millisecond
	rep := &RestripeCrashReport{
		CrashServer:    1,
		CrashAtSeconds: crashAt.Seconds(),
		RestartSeconds: restartAt.Seconds(),
	}
	plan := fault.Plan{Events: []fault.Event{
		{At: crashAt, Kind: fault.Crash, Server: rep.CrashServer},
		{At: restartAt, Kind: fault.Restart, Server: rep.CrashServer},
	}}
	if err := sys.Clu.InstallFaultPlan(plan); err != nil {
		return nil, err
	}
	// A foreground round executes while the crash interrupts both it and
	// the background migration.
	if _, err := sys.Execute(core.Request{Op: op, Input: "input", Output: "crash.during", Scheme: core.NAS}); err != nil {
		return nil, fmt.Errorf("restripe crash round: %w", err)
	}
	converged, dt, err := sys.DrainRestripe(restripeDrainTimeout)
	if err != nil {
		return nil, err
	}
	if !converged {
		return nil, fmt.Errorf("restripe crash: migration did not converge after the restart")
	}
	rs := sys.Clu.RestripeStats
	rep.Resumes = rs.Resumes()
	rep.Completed = rs.Completed()
	rep.ConvergeSeconds = dt.Seconds()
	if rep.Resumes == 0 {
		return nil, fmt.Errorf("restripe crash: migration completed without resuming a parked move")
	}
	for _, check := range []struct {
		file string
		want *grid.Grid
	}{{"crash.trigger", want}, {"crash.during", want}, {"input", g}} {
		got, err := sys.FetchGrid(check.file)
		if err != nil {
			return nil, fmt.Errorf("restripe crash %s readback: %w", check.file, err)
		}
		if !got.Equal(check.want) {
			return nil, fmt.Errorf("restripe crash: %s diverged from the reference", check.file)
		}
	}
	rep.Verified = true
	return rep, nil
}
