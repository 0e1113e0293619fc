#!/usr/bin/env python3
"""Builds the DSR benchmark and runs one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is the Cargo package next to
this file; it builds from source into $CARGO_TARGET_DIR (default
`.bench_build`). Diagnostics go to standard error; the last line of
standard output is the result object printed by the workload process.
The exit code is the workload's: 1 on a wrong answer or a failed
consistency check.

`--self-test` runs every workload, listed in BENCHMARK.json or not, at a
tiny scale, traced and untraced, checks that each prints exactly the
metrics BENCHMARK.json names, that a planted wrong answer fails the run,
and that traced and untraced analytic runs of a seed give the same
answers.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170
# Workloads the binary runs that BENCHMARK.json does not list (their
# figures swing too far from run to run to gate a change); the self-test
# keeps them working.
UNLISTED_WORKLOADS = ["mix-rmat12"]


def build():
    """Builds the benchmark binary and returns its path (None on failure)."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False)
    except OSError as err:
        print(f"cannot run cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return None
    return os.path.join(target if os.path.isabs(target) else os.path.join(os.getcwd(), target),
                        "release", "dsr-perfbench")


def run_binary(binary, args, limit_s):
    """Runs the workload process; returns (exit code, stdout, stderr).

    The process leads its own process group, so a run that overstays
    `limit_s` is stopped together with the set-up processes it started.
    """
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nworkload exceeded {limit_s} s and was stopped\n"
        return 124, "", err
    return proc.returncode, out, err


def workload(binary, opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, out, err = run_binary(binary, args, RUN_LIMIT_S)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code in (0, 1) and lines:
        print(lines[-1])
    return code if lines else (code or 1)


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    digests = {}
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", name, "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"]
            code, out, err = run_binary(binary, args, RUN_LIMIT_S)
            where = f"{name} trace {trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}\n{err}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            found = re.search(r"answer digest ([0-9a-f]{16})", err)
            if name.startswith("analytic") and found:
                digests[trace] = found.group(1)
            print(f"ok   {where}", file=sys.stderr)
        args = ["--workload", name, "--seed", "3", "--seconds", "2", "--trace", "0", "--tiny", "--plant-wrong"]
        code, out, _ = run_binary(binary, args, RUN_LIMIT_S)
        result = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
        if code != 1 or result.get("correct") is not False:
            problems.append(f"{name}: planted wrong answer gave exit {code}, result {result}")
        else:
            print(f"ok   {name} planted wrong answer fails", file=sys.stderr)
    if len(digests) != 2 or digests[0] != digests[1]:
        problems.append(f"analytic answer digests differ between untraced and traced runs: {digests}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and (opts.workload is None or opts.seed is None or opts.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    binary = build()
    if binary is None:
        return 1
    return self_test(binary) if opts.self_test else workload(binary, opts)


if __name__ == "__main__":
    sys.exit(main())
