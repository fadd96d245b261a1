#!/usr/bin/env bash
# Fault-injection proof for elastic lease-based sweeps (ctest + CI):
#
#   1. SIGKILL a worker mid-lease, let two survivors steal the orphaned
#      lease once its heartbeat expires, and require the merged report to
#      be byte-identical to the single-process run.
#   2. Kill a lone worker mid-sweep, re-launch against the same lease
#      directory, and require the resumed run to skip every landed lease
#      and still merge byte-identically.
#
#   tools/sweep_elastic_kill_test.sh <taskdrop_cli> <spec> [sweep args...]
#
# Every extra argument is passed to the reference run and to each elastic
# worker alike, so axis overrides shard exactly like spec files. The lease
# timeout is kept short (1500 ms) so waiting out a dead worker's claim
# costs the test little; real deployments should use the 30 s default.
set -euo pipefail

cli=${1:?usage: sweep_elastic_kill_test.sh <taskdrop_cli> <spec> [sweep args...]}
spec=${2:?usage: sweep_elastic_kill_test.sh <taskdrop_cli> <spec> [sweep args...]}
shift 2

timeout_ms=1500
tmp_dir=$(mktemp -d)
pids=()
cleanup() {
  for pid in ${pids[@]+"${pids[@]}"}; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$tmp_dir"
}
trap cleanup EXIT

"$cli" sweep --spec="$spec" "$@" --json --out="$tmp_dir/reference.json" \
    > /dev/null

# Waits (up to ~10 s) until a file matching $2 exists in $1 or pid $3 died.
wait_for_glob() {
  local dir=$1 glob=$2 pid=$3 i
  for (( i = 0; i < 1000; i++ )); do
    compgen -G "$dir/$glob" > /dev/null && return 0
    kill -0 "$pid" 2>/dev/null || return 0
    sleep 0.01
  done
  return 0
}

# --- Phase 1: three workers, one SIGKILLed mid-lease. -------------------
kill_dir="$tmp_dir/leases_kill"
elastic=(sweep --spec="$spec" "$@" --elastic --lease-dir="$kill_dir"
         --lease-timeout="$timeout_ms" --threads=2 --progress)

"$cli" "${elastic[@]}" > /dev/null 2> "$tmp_dir/victim.log" &
victim=$!
pids+=("$victim")
# Claim files are created before a lease computes, so killing as soon as
# one appears lands mid-computation with overwhelming probability.
wait_for_glob "$kill_dir" 'lease_*.claim' "$victim"
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true

# Every claim the dead worker orphaned without publishing MUST end up
# computed by a survivor — either by stealing the expired claim outright
# or by acquiring the lease fresh in the instant after a concurrent thief
# renamed the corpse away. (If the victim raced to publish everything
# first, recovery is trivially exercised via the skip path — still a
# valid run.)
orphans=()
for claim in "$kill_dir"/lease_*.claim; do
  if [[ -e "$claim" && ! -e "${claim%.claim}.json" ]]; then
    name=$(basename "$claim" .claim)
    orphans+=("${name#lease_}")
  fi
done

"$cli" "${elastic[@]}" > "$tmp_dir/worker1.out" 2> "$tmp_dir/worker1.log" &
w1=$!
"$cli" "${elastic[@]}" > "$tmp_dir/worker2.out" 2> "$tmp_dir/worker2.log" &
w2=$!
pids+=("$w1" "$w2")
wait "$w1"
wait "$w2"

for id in ${orphans[@]+"${orphans[@]}"}; do
  if ! grep -hq "lease $id \[.*) published" \
      "$tmp_dir/worker1.log" "$tmp_dir/worker2.log"; then
    echo "sweep_elastic_kill_test: the dead worker orphaned lease $id but" \
         "no survivor reported publishing it" >&2
    exit 1
  fi
done

"$cli" merge "$kill_dir"/lease_*.json --allow-reexecuted --format=json \
    --out="$tmp_dir/killed.json" > /dev/null
if ! cmp "$tmp_dir/reference.json" "$tmp_dir/killed.json"; then
  echo "sweep_elastic_kill_test: merged report after a mid-lease SIGKILL" \
       "differs from the single-process run" >&2
  exit 1
fi

# --- Phase 2: kill a lone worker, re-launch, resume for free. -----------
resume_dir="$tmp_dir/leases_resume"
elastic_resume=(sweep --spec="$spec" "$@" --elastic --lease-dir="$resume_dir"
                --lease-timeout="$timeout_ms" --threads=2)

"$cli" "${elastic_resume[@]}" > /dev/null 2>&1 &
solo=$!
pids+=("$solo")
# Kill only after at least one result landed, so the resume genuinely
# starts from a partial directory.
wait_for_glob "$resume_dir" 'lease_*.json' "$solo"
kill -9 "$solo" 2>/dev/null || true
wait "$solo" 2>/dev/null || true
landed=$(ls "$resume_dir"/lease_*.json 2>/dev/null | wc -l)

"$cli" "${elastic_resume[@]}" > "$tmp_dir/resume.out"

skipped=$(grep -o 'skipped=[0-9]*' "$tmp_dir/resume.out" | cut -d= -f2)
if (( skipped < landed )); then
  echo "sweep_elastic_kill_test: resume skipped only $skipped leases but" \
       "$landed results had already landed before the kill" >&2
  exit 1
fi

"$cli" merge "$resume_dir"/lease_*.json --allow-reexecuted --format=json \
    --out="$tmp_dir/resumed.json" > /dev/null
if ! cmp "$tmp_dir/reference.json" "$tmp_dir/resumed.json"; then
  echo "sweep_elastic_kill_test: merged report after kill-and-resume" \
       "differs from the single-process run" >&2
  exit 1
fi

echo "sweep elastic kill test OK: survivors recovered ${#orphans[@]}" \
     "orphaned lease(s) after a mid-lease SIGKILL and resume skipped" \
     "$skipped/$landed landed leases, both byte-identical to the" \
     "single-process report"
