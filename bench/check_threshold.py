#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

    bench/check_threshold.py BASELINE NEW [--max-ratio 1.5]

Fails (exit 1) when any benchmark's cpu_time regressed by more than its
threshold x baseline. The threshold is per benchmark:

  * --max-ratio (default 1.5) is the base allowance — loose enough for
    shared-runner noise while still catching real regressions in the PMF
    hot paths;
  * benchmarks whose baseline is sub-microsecond get the base allowance
    times SUB_MICROSECOND_FACTOR: at that scale a CI runner's scheduling
    jitter and frequency steps are the same order of magnitude as the
    measurement, and the fast benches were observed to flap under a flat
    1.5x gate (see ROADMAP, CI-noise characterisation);
  * PER_BENCH_MAX_RATIO pins exact keys that need their own allowance,
    overriding both rules above.

A benchmark run with repetitions is compared by its median aggregate;
the other aggregates are ignored. Its `/repeats:N` name suffix is dropped
from the key, so a repeated row still matches a baseline recorded without
repetitions (or with another N).

Accepts both the micro (taskdrop-bench-micro/v1) and macro
(taskdrop-bench-macro/v1) merged-JSON schemas produced by bench/run_all.sh.
Benchmarks present on only one side are reported but never fail the check,
so adding or retiring a bench does not break CI. The threshold table is
unit-tested by bench/test_check_threshold.py (wired into ctest).
"""
import argparse
import json
import re
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

#: Google Benchmark appends this to the name of a family run with
#: Repetitions(N).
REPEATS_SUFFIX = re.compile(r"/repeats:\d+$")

ACCEPTED_SCHEMAS = ("taskdrop-bench-micro/v1", "taskdrop-bench-macro/v1")

#: Baselines under this many nanoseconds are treated as noise-dominated.
SUB_MICROSECOND_NS = 1000.0

#: Extra allowance factor for noise-dominated (sub-microsecond) baselines.
SUB_MICROSECOND_FACTOR = 2.0

#: Exact-key overrides: "suite/benchmark name" -> max ratio. Takes
#: precedence over the sub-microsecond widening.
PER_BENCH_MAX_RATIO = {
    # End-to-end trials run for tens of milliseconds and average scheduler
    # noise out, so hold the big ones to a tighter bar than the kernels.
    "macro_trial/spec_hc/PAM/10k": 1.4,
    "macro_trial/spec_hc/PAM_deep/5k": 1.4,
    "macro_trial/spec_hc/MM/10k": 1.4,
}


def threshold_for(key, baseline_ns, base_ratio):
    """Max allowed new/baseline cpu_time ratio for one benchmark."""
    if key in PER_BENCH_MAX_RATIO:
        return PER_BENCH_MAX_RATIO[key]
    if baseline_ns < SUB_MICROSECOND_NS:
        return base_ratio * SUB_MICROSECOND_FACTOR
    return base_ratio


def bench_key(suite, name):
    """Gate key of one row: suite/name without a trailing /repeats:N."""
    return f"{suite}/{REPEATS_SUFFIX.sub('', name)}"


def nanoseconds(bench):
    return bench["cpu_time"] * UNIT_NS[bench.get("time_unit", "ns")]


def load(path):
    with open(path) as fh:
        merged = json.load(fh)
    if merged.get("schema") not in ACCEPTED_SCHEMAS:
        sys.exit(f"{path}: unexpected schema {merged.get('schema')!r} "
                 f"(accepted: {', '.join(ACCEPTED_SCHEMAS)})")
    times = {}
    medians = {}
    for suite, payload in merged["benchmarks"].items():
        for bench in payload.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                if bench.get("aggregate_name") == "median":
                    medians[bench_key(suite, bench["run_name"])] = (
                        nanoseconds(bench))
                continue
            times[bench_key(suite, bench["name"])] = nanoseconds(bench)
    # A repeated benchmark is gated on the median of its repetitions, not
    # on whichever repetition came last.
    times.update(medians)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--max-ratio", type=float, default=1.5,
                        help="base allowed new/baseline cpu_time ratio "
                             "(widened per benchmark; see module docstring)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.new)

    failures = []
    for key in sorted(baseline.keys() | fresh.keys()):
        if key not in baseline:
            print(f"  NEW      {key} (no baseline)")
            continue
        if key not in fresh:
            print(f"  MISSING  {key} (baseline only)")
            continue
        ratio = fresh[key] / baseline[key]
        allowed = threshold_for(key, baseline[key], args.max_ratio)
        status = "FAIL" if ratio > allowed else "ok"
        print(f"  {status:<8} {key}: {baseline[key]:.1f} ns -> "
              f"{fresh[key]:.1f} ns ({ratio:.2f}x, limit {allowed:.2f}x)")
        if ratio > allowed:
            failures.append((key, ratio, allowed))

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond their "
              f"threshold:", file=sys.stderr)
        for key, ratio, allowed in failures:
            print(f"  {key}: {ratio:.2f}x (limit {allowed:.2f}x)",
                  file=sys.stderr)
        return 1
    print("\nall benchmarks within their thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
