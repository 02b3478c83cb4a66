#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 11-20 --out perfbench/baseline.json fig11 rpc

Run from the repository root. Each (workload, seed) pair runs once through
run.py with --trace 0. For every end-to-end metric the report gives the
median of the runs and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median: the
run-to-run spread each metric's bound in BENCHMARK.json must cover. The
report also records the host the runs were made on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def host_facts(summary):
    """Host facts from a run's summary line (go=, num_cpu=, gomaxprocs=)."""
    facts = {"machine": platform.machine()}
    for field in summary.split():
        key, eq, value = field.partition("=")
        if eq and key in ("go", "num_cpu", "gomaxprocs"):
            facts[key] = int(value) if value.isdigit() else value
    return facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="11-20", help="inclusive seed range, e.g. 11-20")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--out", help="write the report here as JSON")
    args = ap.parse_args()

    report = {"seeds": args.seeds, "seconds": float(args.seconds), "workloads": {}}
    for w in args.workloads:
        values = {}
        for seed in seed_list(args.seeds):
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                               capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                print("%s seed %d failed (exit %d)" % (w, seed, p.returncode), file=sys.stderr)
                return 1
            if "host" not in report:
                summary = [l for l in p.stderr.splitlines() if l.startswith("perfbench %s:" % w)]
                report["host"] = host_facts(summary[0] if summary else "")
            for name, m in json.loads(p.stdout.splitlines()[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            rows[name] = {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0,
                          "min": min(vs), "max": max(vs)}
            print("%-10s %-14s median %-14.6g spread %.4f" % (w, name, med, rows[name]["spread"]))
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
