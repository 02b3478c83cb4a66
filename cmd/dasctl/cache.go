package main

import (
	"fmt"
	"io"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/workload"
)

// cacheReport runs a short offloaded workload (flow-routing over a small
// synthetic terrain, round-robin placement, repeated so the cache warms)
// with the halo-strip cache enabled and prints each server's cache stats
// and the cluster-wide counters. Pin tuning needs the p99 controller, which
// controlReport demonstrates.
func cacheReport(w io.Writer, servers int, policy string, rounds int) error {
	if servers <= 0 {
		return fmt.Errorf("servers must be positive")
	}
	if rounds < 1 {
		rounds = 1
	}
	cfg := cluster.Default()
	cfg.ComputeNodes = servers
	cfg.StorageNodes = servers

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.EnableCache(cache.Config{Policy: policy}); err != nil {
		return err
	}

	const width, height = 512, 256
	g := workload.Terrain(width, height, 1)
	lay := layout.NewRoundRobin(servers)
	if _, err := sys.IngestGrid("demo", g, lay, 64*1024); err != nil {
		return err
	}
	for round := 0; round < rounds; round++ {
		out := fmt.Sprintf("demo.out.%d", round)
		if _, err := sys.Execute(core.Request{
			Op: "flow-routing", Input: "demo", Output: out, Scheme: core.NAS,
		}); err != nil {
			return fmt.Errorf("cache demo round %d: %w", round, err)
		}
	}

	mgrCfg := sys.Cache.Config()
	fmt.Fprintf(w, "halo-strip cache demo: flow-routing on %dx%d terrain, %d servers, %d rounds\n",
		width, height, servers, rounds)
	fmt.Fprintf(w, "budget %s per server, policy %s\n\n",
		metrics.FormatBytes(mgrCfg.BudgetBytes), mgrCfg.Policy)
	fmt.Fprintf(w, "input: %s in %d strips\n", metrics.FormatBytes(g.SizeBytes()),
		(g.SizeBytes()+64*1024-1)/(64*1024))

	for _, s := range sys.Cache.Stats() {
		fmt.Fprintf(w, "%s\n", s.String())
	}
	fmt.Fprintf(w, "\ncluster: %s\n", sys.Clu.CacheStats.String())
	fmt.Fprintln(w, "pin tuning runs under the p99 controller: see dasctl -control")
	return nil
}
