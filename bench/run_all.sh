#!/usr/bin/env bash
# Run a set of Google-Benchmark binaries and merge the results into one
# JSON baseline.
#
#   bench/run_all.sh <bin-dir> [out.json] [schema] [bench ...]
#
# <bin-dir> is the directory holding the bench binaries (e.g. build/bench).
# Defaults reproduce the micro baseline; the macro baseline is
#
#   bench/run_all.sh build/bench BENCH_macro.json taskdrop-bench-macro/v1 macro_trial
#
# Also available as `cmake --build build --target bench_micro` /
# `... --target bench_macro`, which write BENCH_micro.json /
# BENCH_macro.json in the repository root.
#
# The merged file's `context` is the first binary's Google Benchmark
# context plus the build the binaries came from: compiler, build type and
# C++ flags (from <bin-dir>/build_context.json, which bench/CMakeLists.txt
# writes) and the git commit (`-dirty` when the tree had changes). Its
# `library_build_type` describes the system Google Benchmark library, not
# this build.
#
# The macro baseline also prices a sweep by hand: one (cell, trial) unit
# of `taskdrop_cli sweep` costs about one macro_trial run of its
# (scenario, mapper, level), a guide for picking the shard count in
# tools/sweep_shards.sh (see the README's "Sharded sweeps" section). No
# program reads it; elastic leases are sized from the sweep spec alone.
set -euo pipefail

bin_dir=${1:?usage: run_all.sh <bin-dir> [out.json] [schema] [bench ...]}
out=${2:-BENCH_micro.json}
schema=${3:-taskdrop-bench-micro/v1}
shift $(( $# > 3 ? 3 : $# ))
benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  benches=(micro_chain micro_completion micro_convolution micro_dropper
           micro_online)
fi

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

for bench in "${benches[@]}"; do
  exe="$bin_dir/$bench"
  if [[ ! -x "$exe" ]]; then
    echo "error: $exe not found or not executable (build the bench targets first)" >&2
    exit 1
  fi
  echo "== $bench =="
  "$exe" --benchmark_format=console \
         --benchmark_out="$tmp_dir/$bench.json" \
         --benchmark_out_format=json
done

git_sha=$(git -C "$(dirname "$0")" describe --always --dirty --abbrev=40 \
          2>/dev/null || echo unknown)

python3 - "$out" "$schema" "$tmp_dir" "$bin_dir" "$git_sha" "${benches[@]}" <<'EOF'
import json, os, sys
out, schema, tmp_dir, bin_dir, git_sha = sys.argv[1:6]
names = sys.argv[6:]
merged = {"schema": schema, "benchmarks": {}}
for name in names:
    with open(f"{tmp_dir}/{name}.json") as fh:
        merged["benchmarks"][name] = json.load(fh)
context = dict(merged["benchmarks"][names[0]].get("context", {}))
build_context = os.path.join(bin_dir, "build_context.json")
if os.path.exists(build_context):
    with open(build_context) as fh:
        context.update(json.load(fh))
context["git_sha"] = git_sha
context["library_build_type_note"] = (
    "library_build_type is the system Google Benchmark library's build, "
    "not this build's (see build_type)")
merged["context"] = context
with open(out, "w") as fh:
    json.dump(merged, fh, indent=2)
    fh.write("\n")
print(f"wrote {out}")
EOF
