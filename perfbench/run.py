#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload trial_cond --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
the perfbench CMake project (the taskdrop library, taskdrop_cli and the
benchmark program) into .bench_build/; later runs only check that the build
is current. The program's result is printed as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the run context (compiler and flags,
build type, source revision, nproc, steal share and load average over the
run, and the scaling to nominal host speed).

Exits non-zero, without printing a result, when the checkout has no
sources to build or when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("trial_cond", "trial_deep", "serve_paper")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark program and the CLI."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no taskdrop sources at {ROOT}; run from a source checkout")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "perfbench", "taskdrop_cli"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return BUILD / "perfbench", BUILD / "taskdrop" / "tools" / "taskdrop_cli"


def cpu_times():
    """Aggregate /proc/stat CPU counters: (steal, total) in clock ticks."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]; the
    # guest fields are already counted in user and nice.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def load_average():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def source_revision():
    """The git commit when there is one, plus a digest of the sources the
    benchmark builds (a checkout without git history still gets an id)."""
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    program, cli = build()
    work_dir = BUILD / "run"
    work_dir.mkdir(exist_ok=True)
    steal0, total0 = cpu_times()
    load0 = load_average()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [str(program), f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--cli={cli}", f"--work-dir={work_dir}"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - started
    steal1, total1 = cpu_times()
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])

    sha, digest = source_revision()
    context = result.pop("context")
    context.update({
        "git_sha": sha,
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "load_average_start": load0,
        "load_average_end": load_average(),
        "process_wall_s": wall,
    })
    print(json.dumps({"context": context}))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
