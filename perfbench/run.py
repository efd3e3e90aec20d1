#!/usr/bin/env python3
"""Build and run the awsad detection-service benchmark.

Benchmark run (the interface BENCHMARK.json names):

    python3 perfbench/run.py --workload fleet-open --seed 1 --seconds 25 --trace 0

builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build/`), runs one workload, and forwards its report; the last
line of standard output is the JSON result. Run it from the root of
the repository.

Helpers:

    python3 perfbench/run.py --self-test
        reduced-scale check: the same (workload, seed) regenerates
        bit-identical inputs, outcome digests and alarm counts, and
        every metric of BENCHMARK.json prints with its unit.

    python3 perfbench/run.py --spread <workload> --runs 10 [--trace 0|1]
        runs a workload on consecutive seeds and prints each metric's
        median and interquartile spread as a share of the median.

    python3 perfbench/run.py --compare BASE.json [...] --against NEW.json [...]
        compares result files (written under .perfbench/) metric by
        metric against BENCHMARK.json's bounds; refuses when the two
        sides were built with different codegen flags or profiles.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The seed tuning and day-to-day runs use; a later change confirms a
# claimed gain on the held-out seed, which was not used while tuning.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
WORKLOADS = ["fleet-open", "horizon-batch", "cluster-drift"]
# Provenance fields that change the compiled program: results that
# differ in any of them are not comparable.
CODEGEN_FIELDS = ["rustflags", "profile", "opt_level", "rustc", "target"]
# A benchmark run must end within 180 s; leave headroom.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the benchmark; returns the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    binary = os.path.join(target_dir(), "release", "awsad-perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_LIMIT_S} s")
        return 1, []
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, lines


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def line_value(lines, prefix):
    return next((l for l in lines if l.startswith(prefix)), None)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary):
    bench = load_benchmark()
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            seen = []
            for _ in range(2):
                args = ["--workload", workload, "--seed", str(DEFAULT_SEED),
                        "--seconds", "3", "--trace", str(trace), "--scale", "smoke"]
                code, lines = run_binary(binary, args, echo=False)
                result = result_of(lines)
                if code != 0 or result is None or not result["correct"]:
                    log(f"FAIL {workload} trace={trace}: exit {code}, result {result}")
                    ok = False
                    break
                seen.append((line_value(lines, "inputs "),
                             line_value(lines, "reference "), result))
            if len(seen) < 2:
                continue
            if seen[0][:2] != seen[1][:2]:
                log(f"FAIL {workload} trace={trace}: inputs or outcome digest differ: {seen}")
                ok = False
            metrics = seen[0][2]["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected[trace]:
                log(f"FAIL {workload} trace={trace}: metrics {sorted(got.items())} "
                    f"!= {sorted(expected[trace].items())}")
                ok = False
            log(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace} {seen[0][0]} {seen[0][1]}")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def spread(binary, workload, runs, seconds, trace, first_seed):
    values = {}
    for seed in range(first_seed, first_seed + runs):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)]
        code, lines = run_binary(binary, args, echo=False)
        result = result_of(lines)
        if code != 0 or result is None:
            log(f"seed {seed}: exit {code}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: " + " ".join(f"{n}={m['value']:.5g}"
                                       for n, m in result["metrics"].items()))
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if share <= bound / 3 else "  WIDE")
        print(f"{name:<30} median {med:<14.6g} iqr/median {share:8.4f}"
              f"{'' if bound is None else f'  bound {bound}'}{flag}")
    return 0


def compare(base_files, new_files):
    def load(files):
        runs = []
        for path in files:
            with open(path) as f:
                runs.append(json.load(f))
        return runs

    base, new = load(base_files), load(new_files)
    flags = {json.dumps({k: r["provenance"].get(k) for k in CODEGEN_FIELDS}, sort_keys=True)
             for r in base + new}
    if len(flags) != 1:
        log("refusing to compare: the runs were built with different codegen settings:")
        for f in sorted(flags):
            log(f"  {f}")
        return 2
    workloads = {r["provenance"]["workload"] for r in base + new}
    if len(workloads) != 1:
        log(f"refusing to compare different workloads: {sorted(workloads)}")
        return 2
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        spec = specs.get(name, {})
        change = (n - b) / b if b else float("nan")
        if spec.get("better") == "higher":
            regress = -change
        else:
            regress = change
        verdict = ""
        if "bound" in spec:
            verdict = "REGRESSED" if regress > spec["bound"] else "within bound"
            worse += regress > spec["bound"]
        print(f"{name:<30} base {b:<14.6g} new {n:<14.6g} change {change:+8.2%} {verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--spread", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare", nargs="+")
    p.add_argument("--against", nargs="+")
    args = p.parse_args()

    if args.compare:
        if not args.against:
            p.error("--compare needs --against")
        return compare(args.compare, args.against)
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    if args.spread:
        return spread(binary, args.spread, args.runs, args.seconds, args.trace, args.seed)
    if args.workload is None:
        p.error("--workload is required")
    code, _ = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
