#!/usr/bin/env python3
"""Build the stack benchmark from source and run one workload.

    python3 stackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 stackbench/run.py --self-test

Run from the repository root. The benchmark is compiled with cargo
(release profile, offline, locked) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset. Durable stores live under
`.bench_work/` while a run lasts; traced runs write their spans to
`.bench_out/`. The last line of standard output is the JSON result.

`--self-test` runs every workload at reduced size, traced and untraced,
checks that each emits the metrics BENCHMARK.json names with their
units and that the correctness oracle passes, then injects a dropped
batch into each workload and checks that the oracle rejects it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["zipf-mem", "zipf-durable", "uniform-read-write", "zipf-net"]
# Metrics printed (as text) only by the workloads they apply to.
TEXT_ONLY = {
    "zipf-durable": ["recover_s", "disk_bytes_per_key"],
    "zipf-net": ["replica_lag_ms", "rpc_p50_us"],
}


def build():
    """Compiles the benchmark; returns the executable's path."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("stackbench: build failed")
    return os.path.join(target, "release", "stackbench")


def stamp():
    """The commit (when the checkout is a git repository) and nproc."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return ["--commit", commit, "--nproc", str(len(os.sched_getaffinity(0)))]


def run(exe, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_work")] + stamp() + list(extra)
    if trace:
        spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.tsv")
        cmd += ["--spans", spans]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(exe, w, 7, 2, trace, ["--small"], capture=True)
            if r.returncode != 0:
                problems.append(f"{w} trace={trace}: exit {r.returncode}: {r.stderr.strip()}")
                continue
            lines = r.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} trace={trace}: oracle failed: "
                                + "; ".join(l for l in lines if l.startswith("check failed")))
            if trace == 0:
                for name in TEXT_ONLY.get(w, []) + ["failed_frac"]:
                    if not any(l.startswith(f"metric {w} {name} = ") for l in lines):
                        problems.append(f"{w}: text metric {name} missing")
            print(f"self-test {w} trace={trace}: {len(got)} metrics, "
                  f"correct={result['correct']}", file=sys.stderr)
        r = run(exe, w, 7, 1, 0, ["--small", "--inject-drop"], capture=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{w}: the oracle accepted a run with a dropped batch")
        print(f"self-test {w} inject-drop: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")
    exe = build()
    if args.self_test:
        return self_test(exe)
    return run(exe, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
