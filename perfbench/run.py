#!/usr/bin/env python3
"""Build perfbench from source and run one workload in its own process.

    python3 perfbench/run.py --workload rpc --seed 7 --seconds 10 --trace 0

Run from the repository root. Everything the build and the run write
goes under .bench_build/ in that root: the Go build cache, the binary,
and for traced runs the spans and CPU profiles. The last line of
standard output is the result object. With --trace 1 the per-module CPU
shares (cpu.<module>_frac) are added to it from the run's CPU profile,
bucketed by package from `go tool pprof -top`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
MODULE = "github.com/hpcio/das/"

# Modules whose self-CPU share the traced run reports; every other
# package of the repository counts as "other", the benchmark itself as
# "bench", and the Go runtime (scheduler, GC, memmove) as "runtime".
CPU_MODULES = ["kernels", "grid", "workload", "pfs", "sim", "simnet", "core",
               "active", "cache", "tenants", "runtime", "bench", "other"]

# A run measures for --seconds after a set-up of a few seconds; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "PPROF_TMPDIR": os.path.join(BUILD, "tmp"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    for d in ("GOTMPDIR", "HOME"):
        os.makedirs(env[d], exist_ok=True)
    subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, check=True,
                   stdout=sys.stderr)


def module_of(func):
    """Bucket a pprof function name by the package that defines it."""
    if func.startswith(MODULE + "internal/"):
        return func[len(MODULE + "internal/"):].split(".", 1)[0].split("/", 1)[0]
    if func.startswith(MODULE + "perfbench") or func.startswith("main."):
        return "bench"
    if func.startswith("runtime.") or func.startswith("runtime/internal") or func.startswith("internal/runtime"):
        return "runtime"
    return "other"


def to_seconds(value):
    for unit, scale in (("ms", 1e-3), ("us", 1e-6), ("µs", 1e-6), ("ns", 1e-9),
                        ("hrs", 3600.0), ("mins", 60.0), ("s", 1.0)):
        if value.endswith(unit):
            return float(value[:-len(unit)]) * scale
    return float(value)


def cpu_shares(env, profiles):
    """Self-CPU share per module over the traced rounds' profiles."""
    out = subprocess.run(["go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", BINARY] + profiles,
                         env=env, check=True, capture_output=True, text=True).stdout
    flat = {m: 0.0 for m in CPU_MODULES}
    rows = False
    for line in out.splitlines():
        parts = line.split(None, 5)
        if parts and parts[0] == "flat":
            rows = True
            continue
        if not rows or len(parts) != 6:
            continue
        mod = module_of(parts[5])
        flat[mod if mod in flat else "other"] += to_seconds(parts[0])
    total = sum(flat.values())
    return {"cpu.%s_frac" % m: {"value": (v / total if total else 0.0), "unit": "ratio"}
            for m, v in flat.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    try:
        build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    trace_dir = os.path.join(BUILD, "trace", "%s-%d" % (args.workload, args.seed))
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        cmd += ["-tracedir", trace_dir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        print("perfbench: no result (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: malformed result line: %s" % lines[-1], file=sys.stderr)
        return proc.returncode or 1
    if args.trace and proc.returncode == 0:
        profiles = sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir) if f.endswith(".pprof"))
        try:
            result["metrics"].update(cpu_shares(env, profiles))
        except (subprocess.CalledProcessError, OSError) as e:
            print("perfbench: pprof failed: %s" % e, file=sys.stderr)
            return 1
    print(json.dumps(result, sort_keys=True))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
