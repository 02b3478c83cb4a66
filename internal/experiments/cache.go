package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
)

// CacheVariantReport is one scheme's measurements across the repeated
// rounds of the cache experiment.
type CacheVariantReport struct {
	Name            string    `json:"name"`
	Rounds          int       `json:"rounds"`
	ExecTimeSeconds []float64 `json:"exec_time_seconds"`
	S2SBytes        []int64   `json:"s2s_bytes"`
	TotalS2SBytes   int64     `json:"total_s2s_bytes"`
	RemoteFetches   int64     `json:"remote_fetches"`
	RemoteBytes     int64     `json:"remote_bytes"`
	CacheHits       int64     `json:"cache_hits"`
	CacheHitBytes   int64     `json:"cache_hit_bytes"`
	ByteHitRate     float64   `json:"byte_hit_rate"`
	Evictions       int64     `json:"evictions"`
	Invalidations   int64     `json:"invalidations"`
	Promotions      int64     `json:"promotions"`
	Demotions       int64     `json:"demotions"`
}

// CacheFlipReport captures the decision-flip demonstration: the same DAS
// request over the unimproved round-robin layout, re-decided as the cache
// warms.
type CacheFlipReport struct {
	ColdOffload      bool    `json:"cold_offload"`
	ColdReason       string  `json:"cold_reason"`
	WarmOffload      bool    `json:"warm_offload"`
	WarmReason       string  `json:"warm_reason"`
	WarmHitFrac      float64 `json:"warm_hit_frac"`
	WarmRunHits      int64   `json:"warm_run_cache_hits"`
	WarmRunFetches   int64   `json:"warm_run_remote_fetches"`
	WarmRunS2SBytes  int64   `json:"warm_run_s2s_bytes"`
	WarmTimeSeconds  float64 `json:"warm_time_seconds"`
	ColdTimeSeconds  float64 `json:"cold_time_seconds"` // the rejected run, served as TS
	WarmupRounds     int     `json:"warmup_rounds"`
	WarmupTimeSecond float64 `json:"warmup_time_seconds"`
}

// CacheRunReport is the JSON-able record of one cache experiment
// (BENCH_cache.json).
type CacheRunReport struct {
	Op          string               `json:"op"`
	SizeGB      int                  `json:"size_gb"`
	Nodes       int                  `json:"nodes"`
	Rounds      int                  `json:"rounds"`
	Policy      string               `json:"policy"`
	BudgetBytes int64                `json:"budget_bytes"`
	Variants    []CacheVariantReport `json:"variants"`
	Flip        *CacheFlipReport     `json:"decision_flip"`
	Verified    bool                 `json:"outputs_verified"`
}

// CacheExperiment compares NAS, NAS+cache, DAS, and DAS+cache on the
// Fig. 11 dependent-kernel workload (flow-routing, smallest size), run
// for several rounds over the same input so the halo-strip cache warms:
// round one fills each server's cache with the dependent strips it
// fetched, later rounds serve them locally. Every round's output is
// verified byte-identical to the sequential reference. The experiment
// also demonstrates the decision flip: a DAS request over the unimproved
// round-robin layout that the cache-blind predictor rejects becomes an
// accepted offload once NAS warm-up rounds establish the hit rate. The
// whole experiment runs twice and the reports must be byte-identical.
func (c Config) CacheExperiment(rounds int, cacheCfg cache.Config) (*Result, *CacheRunReport, error) {
	if rounds < 2 {
		rounds = 2
	}
	report, err := replay("cache", func() (*CacheRunReport, error) { return c.cacheRun(rounds, cacheCfg) })
	if err != nil {
		return nil, nil, err
	}
	r := &Result{
		ID:     "cache",
		Title:  fmt.Sprintf("Halo-strip cache over %d rounds (%s, %d GB)", rounds, report.Op, report.SizeGB),
		XLabel: "round",
		YLabel: "server-to-server bytes",
	}
	for _, v := range report.Variants {
		for round, s2s := range v.S2SBytes {
			r.Add(v.Name, float64(round+1), float64(s2s))
		}
	}
	nas, nasCache := report.Variants[0], report.Variants[1]
	flip := report.Flip
	r.Notes = append(r.Notes,
		fmt.Sprintf("NAS moves %s server-to-server over %d rounds; NAS+cache moves %s (%.0f%% byte hit rate, %d promotions)",
			metrics.FormatBytes(nas.TotalS2SBytes), rounds,
			metrics.FormatBytes(nasCache.TotalS2SBytes), 100*nasCache.ByteHitRate, nasCache.Promotions),
		"all rounds of all variants verified byte-identical to the sequential reference",
		fmt.Sprintf("cache: %s per server, policy %s", metrics.FormatBytes(report.BudgetBytes), report.Policy),
		fmt.Sprintf("decision flip on round-robin: cold DAS rejected (%s); after %d NAS warm-up rounds the same request offloads at %.0f%% predicted hit rate with %d of %d dependent ranges served from cache",
			flip.ColdReason, flip.WarmupRounds, 100*flip.WarmHitFrac, flip.WarmRunHits, flip.WarmRunHits+flip.WarmRunFetches))
	return r, report, nil
}

// cacheRun is one complete pass of the experiment; CacheExperiment runs
// it twice and byte-compares the reports.
func (c Config) cacheRun(rounds int, cacheCfg cache.Config) (*CacheRunReport, error) {
	normCfg, err := cacheCfg.Normalize()
	if err != nil {
		return nil, err
	}
	const op = "flow-routing"
	size := c.SizesGB[0]
	servers := c.Nodes / 2

	report := &CacheRunReport{
		Op: op, SizeGB: size, Nodes: c.Nodes, Rounds: rounds,
		Policy:      normCfg.Policy,
		BudgetBytes: normCfg.BudgetBytes,
	}
	if report.Policy == "" {
		report.Policy = "lru"
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
	type variant struct {
		name   string
		scheme core.Scheme
		lay    layout.Layout // nil = DAS-planned
		cached bool
	}
	variants := []variant{
		{"NAS", core.NAS, rr, false},
		{"NAS+cache", core.NAS, rr, true},
		{"DAS", core.DAS, nil, false},
		{"DAS+cache", core.DAS, nil, true},
	}
	for _, v := range variants {
		sys, err := c.buildSystem(c.Nodes, size, op, v.lay)
		if err != nil {
			return nil, err
		}
		if v.cached {
			if err := sys.EnableCache(cacheCfg); err != nil {
				sys.Close()
				return nil, err
			}
		}
		vr := CacheVariantReport{Name: v.name, Rounds: rounds}
		for round := 0; round < rounds; round++ {
			out := fmt.Sprintf("output.%d", round)
			rep, err := sys.Execute(core.Request{Op: op, Input: "input", Output: out, Scheme: v.scheme})
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("cache %s round %d: %w", v.name, round, err)
			}
			got, err := sys.FetchGrid(out)
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("cache %s round %d readback: %w", v.name, round, err)
			}
			if !got.Equal(want) {
				sys.Close()
				return nil, fmt.Errorf("cache %s round %d diverged from the sequential reference", v.name, round)
			}
			s2s := rep.Traffic[metrics.ServerToServer]
			vr.ExecTimeSeconds = append(vr.ExecTimeSeconds, rep.ExecTime.Seconds())
			vr.S2SBytes = append(vr.S2SBytes, s2s)
			vr.TotalS2SBytes += s2s
			vr.RemoteFetches += rep.Stats.RemoteFetches
			vr.RemoteBytes += rep.Stats.RemoteBytes
			vr.CacheHits += rep.Stats.CacheHits
			vr.CacheHitBytes += rep.Stats.CacheHitBytes
		}
		cs := sys.Clu.CacheStats
		vr.ByteHitRate = cs.ByteHitRate()
		vr.Evictions = cs.Evictions()
		vr.Invalidations = cs.Invalidations()
		vr.Promotions = cs.Promotions()
		vr.Demotions = cs.Demotions()
		report.Variants = append(report.Variants, vr)
		sys.Close()
	}
	report.Verified = true

	flip, err := c.cacheDecisionFlip(op, size, rr, cacheCfg, want)
	if err != nil {
		return nil, err
	}
	if flip.ColdOffload || !flip.WarmOffload {
		return nil, fmt.Errorf("cache flip demo: expected cold reject + warm accept, got cold=%v warm=%v",
			flip.ColdOffload, flip.WarmOffload)
	}
	report.Flip = flip
	return report, nil
}

// cacheDecisionFlip runs the accept-after-warming demonstration on one
// system: the input stays on the unimproved round-robin layout, where
// whole-strip dependent fetches cost as much as normal I/O moves, so the
// cache-blind predictor rejects the offload. Two NAS rounds then warm the
// halo-strip caches (the second round's hits establish the observed hit
// rate), and the same DAS request re-decides: the discounted fetch term
// now beats normal I/O and the request offloads, serving its dependent
// ranges from cache.
func (c Config) cacheDecisionFlip(op string, size int, rr layout.Layout, cacheCfg cache.Config, want *grid.Grid) (*CacheFlipReport, error) {
	sys, err := c.buildSystem(c.Nodes, size, op, rr)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.EnableCache(cacheCfg); err != nil {
		return nil, err
	}
	flip := &CacheFlipReport{WarmupRounds: 2}
	verify := func(out, stage string) error {
		got, err := sys.FetchGrid(out)
		if err != nil {
			return fmt.Errorf("cache flip %s readback: %w", stage, err)
		}
		if !got.Equal(want) {
			return fmt.Errorf("cache flip %s diverged from the sequential reference", stage)
		}
		return nil
	}

	// Cold: the cache-blind economics reject, and the request runs as
	// normal I/O per the workflow chart.
	cold, err := sys.Execute(core.Request{Op: op, Input: "input", Output: "flip.cold", Scheme: core.DAS})
	if err != nil {
		return nil, fmt.Errorf("cache flip cold: %w", err)
	}
	if cold.Decision != nil {
		flip.ColdOffload = cold.Decision.Offload
		flip.ColdReason = cold.Decision.Reason
	}
	flip.ColdTimeSeconds = cold.ExecTime.Seconds()
	if err := verify("flip.cold", "cold"); err != nil {
		return nil, err
	}

	// Warm-up: two offloaded rounds. The first fills the caches (all
	// misses), the second hits them, producing the observed hit rate the
	// cache-aware decision consumes.
	warmupStart := 0.0
	for round := 0; round < flip.WarmupRounds; round++ {
		out := fmt.Sprintf("flip.warm.%d", round)
		rep, err := sys.Execute(core.Request{Op: op, Input: "input", Output: out, Scheme: core.NAS})
		if err != nil {
			return nil, fmt.Errorf("cache flip warm-up %d: %w", round, err)
		}
		warmupStart += rep.ExecTime.Seconds()
		if err := verify(out, fmt.Sprintf("warm-up %d", round)); err != nil {
			return nil, err
		}
	}
	flip.WarmupTimeSecond = warmupStart

	// Warm: the same DAS request, re-decided with the hit rate in the
	// model.
	warm, err := sys.Execute(core.Request{Op: op, Input: "input", Output: "flip.warm", Scheme: core.DAS})
	if err != nil {
		return nil, fmt.Errorf("cache flip warm: %w", err)
	}
	if warm.Decision != nil {
		flip.WarmOffload = warm.Decision.Offload
		flip.WarmReason = warm.Decision.Reason
		flip.WarmHitFrac = warm.Decision.CacheHitFrac
	}
	flip.WarmRunHits = warm.Stats.CacheHits
	flip.WarmRunFetches = warm.Stats.RemoteFetches
	flip.WarmRunS2SBytes = warm.Traffic[metrics.ServerToServer]
	flip.WarmTimeSeconds = warm.ExecTime.Seconds()
	if err := verify("flip.warm", "warm"); err != nil {
		return nil, err
	}
	return flip, nil
}
