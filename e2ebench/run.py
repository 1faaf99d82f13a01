#!/usr/bin/env python3
"""End-to-end serving benchmark entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (the repository's tgnn library plus e2ebench/) from
source into .bench_build/ at the repository root, then runs one workload
under a fixed OpenMP environment and relays its output. The last line of
stdout is the result JSON. Exits non-zero, without a result line, when the
build fails or the run does not finish; exits 1 after the result line when
a correctness check fails.

Untraced results are appended to .bench_build/results/<workload>.jsonl; a
traced run compares its own end-to-end numbers with their median to report
the tracing overhead, and writes its spans as Chrome trace-event JSON to
.bench_build/traces/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")

# Fixed OpenMP environment. Under libgomp's default spin-then-sleep wait
# policy the same fast-forward took either ~0.4 s or 1.4-1.9 s depending on
# how the team's idle spinning met other load; passive waiting removes the
# bimodality. The serving paths of every workload run one OpenMP thread per
# lane already; only the fast-forward inside setup would use a full team,
# and on a shared 4-core host a 4-thread team made it slower and less
# steady (2.8-3.6 s against 2.14-2.18 s for one thread, interleaved runs).
OMP_ENV = {
    "OMP_WAIT_POLICY": "passive",
    "OMP_NUM_THREADS": "1",
    "OMP_PROC_BIND": "false",
    "OMP_DYNAMIC": "false",
}

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure and build e2e_bench; returns the binary path or None."""
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j4"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write(f"\n{e}\n")
                rc = 1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"e2ebench: build failed: {' '.join(cmd)}\n")
                return None
    return os.path.join(cmake_dir, "e2e_bench")


def overhead_lines(results_path, traced):
    """Traced end-to-end numbers against the untraced median."""
    try:
        with open(results_path) as f:
            runs = [json.loads(line)["metrics"] for line in f if line.strip()]
    except OSError:
        runs = []
    if not runs:
        return ["tracing overhead: no untraced run of this workload in this "
                "checkout yet"]
    lines = [f"tracing overhead vs the median of {len(runs)} untraced run(s):"]
    for name, m in traced.items():
        if not name.startswith("traced."):
            continue
        base = name[len("traced."):]
        values = [r[base]["value"] for r in runs if base in r]
        if not values:
            continue
        med = statistics.median(values)
        rel = (m["value"] / med - 1.0) * 100.0 if med else float("nan")
        lines.append(f"  {base}: traced {m['value']:.6g} vs untraced median "
                     f"{med:.6g} {m['unit']} ({rel:+.1f}%)")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    for sub in ("tmp", "results", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    binary = build(out)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            out, "traces", f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, **OMP_ENV, TMPDIR=os.path.join(out, "tmp"))
    print("omp env: " + " ".join(f"{k}={v}" for k, v in OMP_ENV.items()),
          flush=True)

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(stdout)
        sys.stderr.write(f"e2ebench: no result line (exit {proc.returncode})\n")
        return proc.returncode or 1

    print("\n".join(lines[:-1]))
    results_path = os.path.join(out, "results", f"{args.workload}.jsonl")
    if args.trace:
        print("\n".join(overhead_lines(results_path, result["metrics"])))
    elif proc.returncode == 0:
        with open(results_path, "a") as f:
            f.write(lines[-1] + "\n")
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
