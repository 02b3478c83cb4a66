// Command dasctl inspects DAS data distributions: given a file and system
// geometry it prints the strip→server placement under the round-robin,
// grouped, and grouped-replicated policies, the replica sets, capacity
// overhead, and the dependent-strip fetch plan an active storage server
// would execute for a named operator.
//
// Usage:
//
//	dasctl -servers 12 -strips 24                        # placement maps
//	dasctl -servers 12 -op flow-routing -width 8192 \
//	       -size 25165824                                # fetch plan summary
//	dasctl -servers 4 -faults crash@10ms:s1              # crash coverage
//	dasctl -servers 4 -cache -cache-policy arc           # halo-strip cache stats
//	dasctl -servers 4 -restripe                          # online-restripe migration report
//	dasctl -servers 4 -control                           # unified p99 controller report
//	dasctl -servers 4 -tenants -streams 64               # multi-tenant fairness report
//	dasctl -kernels                                      # operator registry listing
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hpcio/das/internal/cli"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
)

func main() {
	servers := flag.Int("servers", 4, "number of storage servers (D)")
	strips := flag.Int64("strips", 16, "strips to display in placement maps")
	groupSize := flag.Int("r", 4, "strips per group for the improved distribution")
	halo := flag.Int("halo", 1, "boundary strips replicated per group side")
	stripSize := flag.Int64("strip-size", 64*1024, "strip size in bytes")
	op := flag.String("op", "", "operator whose fetch plan to analyze (e.g. flow-routing)")
	width := flag.Int("width", 8192, "raster width in elements")
	size := flag.Int64("size", 0, "file size in bytes (required with -op)")
	faults := flag.String("faults", "",
		"fault plan to analyze, e.g. 'crash@10ms:s1,restart@60ms:s1,loss@0:0.05' — reports which strips survive the servers the plan leaves down")
	cacheDemo := flag.Bool("cache", false,
		"run a short offloaded workload with the halo-strip cache enabled and report per-server cache stats")
	cachePolicy := flag.String("cache-policy", "lru", "cache eviction policy for -cache: lru or arc")
	restripeDemo := flag.Bool("restripe", false,
		"run a short offloaded workload with online restriping enabled and report the migration's progress and throttle behaviour")
	controlDemo := flag.Bool("control", false,
		"run a short offloaded workload under the unified p99 latency controller and report its sketches, sample accounting, and tuning actions")
	tenantsDemo := flag.Bool("tenants", false,
		"replay a small multi-tenant Zipf workload under admission control and report per-tenant fairness, queue tails, and file heat")
	streams := flag.Int("streams", 48, "concurrent client streams for -tenants")
	kernelsList := flag.Bool("kernels", false,
		"list every registered operator (kernels, combiners, reducers) with dependence offsets and per-element weights")
	flag.Parse()

	err := checkExclusive(*op, *faults, *cacheDemo, *restripeDemo, *controlDemo, *tenantsDemo, *kernelsList)
	if err == nil {
		switch {
		case *kernelsList:
			err = kernelsReport(os.Stdout)
		case *cacheDemo:
			err = cacheReport(os.Stdout, *servers, *cachePolicy, 3)
		case *restripeDemo:
			err = restripeReport(os.Stdout, *servers, 3)
		case *controlDemo:
			err = controlReport(os.Stdout, *servers, 4)
		case *tenantsDemo:
			err = tenantsReport(os.Stdout, *servers, *streams)
		default:
			err = run(*servers, *strips, *groupSize, *halo, *stripSize, *op, *width, *size, *faults)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dasctl:", err)
		os.Exit(1)
	}
}

// checkExclusive rejects flag combinations that would otherwise be
// silently ignored: -cache, -restripe, -control, -tenants, and -kernels
// each produce their own report and compose with neither the fetch-plan
// (-op) nor the fault-coverage (-faults) analyses, nor with each other.
func checkExclusive(op, faultSpec string, cacheDemo, restripeDemo, controlDemo, tenantsDemo, kernelsList bool) error {
	return cli.CheckExclusive(
		[]cli.Flag{
			{Name: "-cache", Set: cacheDemo},
			{Name: "-restripe", Set: restripeDemo},
			{Name: "-control", Set: controlDemo},
			{Name: "-tenants", Set: tenantsDemo},
			{Name: "-kernels", Set: kernelsList},
		},
		[]cli.Flag{{Name: "-op", Set: op != ""}, {Name: "-faults", Set: faultSpec != ""}},
	)
}

func run(servers int, strips int64, r, halo int, stripSize int64, op string, width int, size int64, faultSpec string) error {
	if servers <= 0 || strips <= 0 {
		return fmt.Errorf("servers and strips must be positive")
	}
	layouts := []layout.Layout{
		layout.NewRoundRobin(servers),
		layout.NewGrouped(servers, r),
		layout.NewGroupedReplicated(servers, r, halo),
	}
	for _, lay := range layouts {
		fmt.Printf("%s  (capacity overhead %.2f)\n", lay.Name(), layout.OverheadRatio(lay))
		for s := int64(0); s < strips; s++ {
			reps := lay.Replicas(s)
			if len(reps) == 0 {
				fmt.Printf("  strip %3d → server %d\n", s, lay.Primary(s))
			} else {
				fmt.Printf("  strip %3d → server %d  (replicas %v)\n", s, lay.Primary(s), reps)
			}
		}
		fmt.Println()
	}

	var down func(srv int) bool
	if faultSpec != "" {
		plan, err := fault.ParsePlan(faultSpec)
		if err != nil {
			return err
		}
		if err := plan.Validate(servers); err != nil {
			return err
		}
		fmt.Printf("fault plan: %s\n", plan.String())
		// End-state liveness: a crash the plan never undoes leaves the
		// server down for good.
		downSet := make(map[int]bool)
		for _, ev := range plan.Sorted() {
			switch ev.Kind {
			case fault.Crash:
				downSet[ev.Server] = true
			case fault.Restart:
				delete(downSet, ev.Server)
			}
		}
		down = func(srv int) bool { return downSet[srv] }
		if len(downSet) == 0 {
			fmt.Println("no server stays down; every strip keeps its primary")
		} else {
			for _, lay := range layouts {
				var lost []int64
				for s := int64(0); s < strips; s++ {
					if _, ok := layout.FirstLiveHolder(lay, s, func(srv int) bool { return !downSet[srv] }); !ok {
						lost = append(lost, s)
					}
				}
				if len(lost) == 0 {
					fmt.Printf("%-40s all %d strips still have a live copy\n", lay.Name(), strips)
				} else {
					fmt.Printf("%-40s %d/%d strips with NO live copy: %v\n", lay.Name(), len(lost), strips, lost)
				}
			}
		}
		fmt.Println()
	}

	if op == "" {
		return nil
	}
	if size <= 0 {
		return fmt.Errorf("-op requires -size")
	}
	k, ok := kernels.Default().Lookup(op)
	if !ok {
		return fmt.Errorf("unknown operator %q (known: %v)", op, kernels.Default().Names())
	}
	pat := kernels.Pattern(k)
	fmt.Printf("operator %s, dependence record:\n%s\n", op, pat.String())

	params := predict.Params{
		ElemSize: grid.ElemSize, StripSize: stripSize, FileSize: size,
		Width: width, OutputFactor: 1,
	}
	for _, lay := range layouts {
		var d predict.Decision
		var err error
		if down != nil {
			d, err = predict.DecideDegraded(pat, params, lay, down)
		} else {
			d, err = predict.Decide(pat, params, lay)
		}
		if err != nil {
			return err
		}
		extra := ""
		if d.Analysis.UnservableStrips > 0 {
			extra = fmt.Sprintf("  unservable strips=%d", d.Analysis.UnservableStrips)
		}
		fmt.Printf("%-40s offload=%v  strip fetches=%d (%d bytes)%s  %s\n",
			lay.Name(), d.Offload, d.Analysis.StripFetches, d.Analysis.StripFetchBytes, extra, d.Reason)
	}
	rec, ok, err := predict.RecommendLayout(pat, params, servers, 0.5)
	if err != nil {
		return err
	}
	if ok {
		fmt.Printf("recommended: %s (overhead %.2f)\n", rec.Name(), layout.OverheadRatio(rec))
	} else {
		fmt.Println("recommended: keep round-robin (pattern has no dependence)")
	}
	return nil
}
