#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout. The first call configures and builds
perfbench (and rss_core from ../src) in .bench_build/; later calls rebuild
only what changed. One process runs one workload, so its peak memory is
that workload's alone. The last line of standard output is the JSON result
of the perfbench binary. Traced runs also write their spans to
.bench_out/<workload>-seed<N>.json.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper_path", "mesh_dense", "lot_red", "mesh_10k")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the perfbench binary; exit 1 on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            sys.exit(1)
    return BUILD / "perfbench"


def pinned_fingerprint(workload, seed):
    pins = json.loads((HERE / "pins.json").read_text())
    if seed != pins["seed"]:
        return None
    return pins["fingerprints"][workload]


def run_one(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    pin = pinned_fingerprint(workload, seed)
    if pin is not None:
        cmd += ["--pin", pin]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / ("%s-seed%d.json" % (workload, seed)))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        sys.exit(1)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if args.workload != "all":
        code, stdout = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(stdout)
        return code

    ok = True
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, args.seed, args.seconds, args.trace)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or not result["correct"]:
            ok = False
            print("%-10s FAILED (exit %d)" % (workload, code))
            sys.stdout.write(stdout)
            continue
        share = result["failed"] / result["attempted"]
        print("%-10s failed_share %g ratio (%d runs)"
              % (workload, share, result["attempted"]))
        for name, metric in result["metrics"].items():
            print("%-10s %s %.6g %s" % (workload, name, metric["value"], metric["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
