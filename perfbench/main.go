// Command perfbench is the repository's benchmark. It runs one workload
// against the DAS system through its public packages, checks every
// output, and prints one JSON result line:
//
//	perfbench -workload rpc -seed 7 -seconds 10 -trace 0
//
// A workload is a fixed, seed-derived set of deterministic simulation
// rounds. Set-up (input generation, sequential references, and one
// untimed warm-up round) runs several times and is reported as its
// median; the timed region then repeats whole cycles of rounds until the
// requested wall time has passed. Simulated metrics come from the first
// timed cycle, and every repeat of a round must reproduce its first run
// exactly. With -trace 1 the run records spans, a CPU profile and layer
// probes and prints the per-layer metrics instead. README.md describes
// the workloads and metrics; run.py, the command BENCHMARK.json names,
// builds this program and folds the CPU profile into per-module shares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs the workload and prints the result line. It
// returns the process exit code: 0 when every check passed, 1 when a check
// failed (the result line is still printed), 2 on usage or set-up errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall seconds the timed region runs for (whole cycles)")
	traceMode := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	traceDir := fs.String("tracedir", "", "directory for spans and CPU profiles (required with -trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	if *traceMode == 1 && *traceDir == "" {
		fmt.Fprintln(stderr, "perfbench: -trace 1 needs -tracedir")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	spec, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	opts := options{
		name:     *name,
		seed:     *seed,
		build:    spec.full,
		duration: time.Duration(*seconds * float64(time.Second)),
		setups:   setupRuns,
		trace:    *traceMode == 1,
		traceDir: *traceDir,
	}
	res, err := runBenchmark(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, res.summary())
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their output check\n", res.failed, res.attempted)
		return 1
	}
	return 0
}
