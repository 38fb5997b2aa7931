#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seeds 42,7] [--seconds S]

The first form builds the benchmark package (release, offline, into
$CARGO_TARGET_DIR, default .bench_build) and runs one workload. Its last
line of output is the JSON result; the metric names in it are checked
against BENCHMARK.json (the end_to_end list with --trace 0, the per_layer
list with --trace 1). The second form runs every workload both ways for
each seed and prints the eight end-to-end figures per workload in one
table: six from the untraced run, abort_rate and checker_violations from
the traced one.

Run from the root of the repository.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(env):
    """Builds both binaries; cargo's chatter goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def check_result(line, trace):
    """Returns the parsed result line, or exits if it does not match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return result


def run_one(exe, args, env, echo=True):
    """Runs the benchmark binary once; returns the checked result."""
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    done = subprocess.run([str(exe), *args], stdout=subprocess.PIPE, text=True, env=env)
    lines = done.stdout.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        sys.exit(done.returncode or 1)
    result = check_result(lines[-1], trace)
    if echo:
        print(lines[-1], flush=True)
    return result


def report(exe, argv, env):
    """Every workload, untraced and traced, for each seed: one table."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    seeds = opts.get("--seeds", "42").split(",")
    seconds = opts.get("--seconds", "20")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]] + ["abort_rate", "checker_violations"]
    rows = []
    for seed in seeds:
        for w in [wl["name"] for wl in spec["workloads"]]:
            base = ["--workload", w, "--seed", seed, "--seconds", seconds]
            e2e = run_one(exe, base + ["--trace", "0"], env)
            layer = run_one(exe, base + ["--trace", "1"], env)
            metrics = {**e2e["metrics"], **layer["metrics"]}
            ok = e2e["correct"] and layer["correct"]
            rows.append((w, seed, ok, [metrics[n] for n in names]))
    print()
    print(f"{'workload':<14} {'seed':>5} {'correct':>7} " + " ".join(f"{n:>20}" for n in names))
    for w, seed, ok, values in rows:
        cells = " ".join(f"{v['value']:>14.4f} {v['unit']:<5}" for v in values)
        print(f"{w:<14} {seed:>5} {str(ok):>7} {cells}")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PERF_THREADS"] = "1"  # the simulator is single-threaded; keep perfkit's pool at 1
    exe = build(env)
    argv = sys.argv[1:]
    if argv and argv[0] == "--report":
        report(exe, argv, env)
    else:
        run_one(exe, argv, env)


if __name__ == "__main__":
    main()
