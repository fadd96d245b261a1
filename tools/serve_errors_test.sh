#!/usr/bin/env bash
# Serve error-path regression suite (ctest + CI): every malformed stream
# line must fail with a line-numbered message, the shutdown stats summary
# must survive error teardown, and --on-error=skip must recover — emitting
# a structured error record while later decisions and the stats stay
# intact. Also covers times past the scheduler's horizon and CLI flag
# validation (negative --seed, bogus --on-error, out-of-range run/serve
# sizes, and typed flag values that are garbage, carry trailing
# characters, overflow, or spell a bool other than 0/1/true/false).
#
#   tools/serve_errors_test.sh <taskdrop_cli>
set -euo pipefail

cli=${1:?usage: serve_errors_test.sh <taskdrop_cli>}

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

serve_args=(--scenario=spec_hc --mapper=PAM --dropper=heuristic)
fails=0

fail() {
  echo "FAIL: $1" >&2
  fails=$((fails + 1))
}

# expect_abort <name> <expected-stderr-substring> <<< stream
# Runs serve in abort mode on the stream from stdin; requires exit 1, the
# line-numbered message on stderr, and a non-empty stats summary.
expect_abort() {
  local name=$1 expected=$2
  local dir="$tmp_dir/$name"
  mkdir -p "$dir"
  cat > "$dir/events.stream"
  local status=0
  "$cli" serve "${serve_args[@]}" --stream="$dir/events.stream" \
      --out="$dir/decisions.log" --stats-out="$dir/stats.txt" \
      2> "$dir/stderr.txt" || status=$?
  [[ $status -eq 1 ]] || fail "$name: expected exit 1, got $status"
  grep -qF -- "$expected" "$dir/stderr.txt" ||
      fail "$name: stderr missing '$expected' (got: $(cat "$dir/stderr.txt"))"
  grep -q "^serve:" "$dir/stats.txt" ||
      fail "$name: stats summary was not emitted on error teardown"
}

expect_abort machine_out_of_range \
    "stream line 2: machine 99 out of range [0, 8)" <<'EOF'
arrive 0 0 50
finish 1 99
EOF

expect_abort type_out_of_range \
    "stream line 1: task type 99 out of range [0," <<'EOF'
arrive 0 99 50
EOF

expect_abort finish_on_idle \
    "stream line 1: machine 3 has no running task to finish" <<'EOF'
finish 0 3
EOF

expect_abort down_on_down \
    "stream line 3: machine 1 is already down" <<'EOF'
arrive 0 0 50
down 1 1
down 2 1
EOF

expect_abort up_on_up \
    "stream line 1: machine 1 is already up" <<'EOF'
up 0 1
EOF

expect_abort non_monotone \
    "stream line 2: time went backwards: t=5 < now=10" <<'EOF'
advance 10
advance 5
EOF

expect_abort unknown_event \
    "stream line 1: unknown event 'frobnicate'" <<'EOF'
frobnicate 1 2
EOF

# Times near 2^63 used to wrap the completion chains; every time past the
# horizon is refused before it changes anything.
near_max_stream=$(for i in $(seq 0 11); do
  echo "arrive $((9223372036854775000 + i)) 0 9223372036854775807"
done)
expect_abort time_past_horizon \
    "stream line 1: arrival 9223372036854775000 is outside the time horizon" \
    <<< "$near_max_stream"
expect_abort deadline_past_horizon \
    "stream line 2: deadline 4611686018427387905 is outside the time horizon" \
    <<'EOF'
arrive 0 0 50
arrive 1 0 4611686018427387905
EOF

# --on-error=skip: the same stream with one bad line in the middle must
# exit 0, log a structured error record in place, produce the identical
# decision records otherwise, and count the skip in the stats.
skip_dir="$tmp_dir/skip"
mkdir -p "$skip_dir"
cat > "$skip_dir/clean.stream" <<'EOF'
arrive 0 0 60
arrive 2 1 80
advance 10
arrive 12 2 90
advance 30
EOF
sed '3a finish 10 99' "$skip_dir/clean.stream" > "$skip_dir/broken.stream"

"$cli" serve "${serve_args[@]}" --stream="$skip_dir/clean.stream" \
    --out="$skip_dir/clean.log" --stats-out="$skip_dir/clean_stats.txt"
"$cli" serve "${serve_args[@]}" --on-error=skip \
    --stream="$skip_dir/broken.stream" \
    --out="$skip_dir/broken.log" --stats-out="$skip_dir/broken_stats.txt" ||
    fail "skip: expected exit 0 on a skipped line"
grep -qF 'error t=10 line=4 msg="machine 99 out of range [0, 8)"' \
    "$skip_dir/broken.log" ||
    fail "skip: structured error record missing from the decision log"
grep -v '^error ' "$skip_dir/broken.log" > "$skip_dir/broken_filtered.log"
diff "$skip_dir/clean.log" "$skip_dir/broken_filtered.log" ||
    fail "skip: decisions after the bad line diverged from the clean run"
grep -q "^lines_skipped=1$" "$skip_dir/broken_stats.txt" ||
    fail "skip: stats did not count the skipped line"

# Skip mode drops each past-horizon line and leaves the rest of the run
# exactly as the clean stream decides it.
{ sed -n '1,3p' "$skip_dir/clean.stream"; echo "$near_max_stream"
  sed -n '4,$p' "$skip_dir/clean.stream"; } > "$skip_dir/horizon.stream"
"$cli" serve "${serve_args[@]}" --on-error=skip \
    --stream="$skip_dir/horizon.stream" \
    --out="$skip_dir/horizon.log" --stats-out="$skip_dir/horizon_stats.txt" ||
    fail "horizon skip: expected exit 0 on skipped lines"
grep -qF 'line=15 msg="arrival 9223372036854775011 is outside the time' \
    "$skip_dir/horizon.log" ||
    fail "horizon skip: structured error record missing from the decision log"
grep -v '^error ' "$skip_dir/horizon.log" > "$skip_dir/horizon_filtered.log"
diff "$skip_dir/clean.log" "$skip_dir/horizon_filtered.log" ||
    fail "horizon skip: decisions diverged from the clean run"
grep -q "^lines_skipped=12$" "$skip_dir/horizon_stats.txt" ||
    fail "horizon skip: stats did not count the twelve skipped lines"

# In abort mode the same broken stream must stop at the bad line.
status=0
"$cli" serve "${serve_args[@]}" --stream="$skip_dir/broken.stream" \
    --out=/dev/null --stats-out=/dev/null 2> "$skip_dir/abort_stderr.txt" ||
    status=$?
[[ $status -eq 1 ]] || fail "abort: expected exit 1, got $status"
grep -qF "stream line 4: machine 99 out of range" \
    "$skip_dir/abort_stderr.txt" || fail "abort: line-numbered message missing"

# Flag validation: negative seeds and bogus --on-error are rejected before
# any stream is read, for serve and run alike.
expect_flag_error() {
  local name=$1 expected=$2
  shift 2
  local status=0
  "$cli" "$@" > /dev/null 2> "$tmp_dir/$name.stderr" || status=$?
  [[ $status -eq 1 ]] || fail "$name: expected exit 1, got $status"
  grep -qF -- "$expected" "$tmp_dir/$name.stderr" ||
      fail "$name: stderr missing '$expected'"
}

expect_flag_error serve_negative_seed "--seed must be non-negative, got -1" \
    serve "${serve_args[@]}" --seed=-1 --stream=/dev/null
expect_flag_error run_negative_seed "--seed must be non-negative, got -7" \
    --scenario=spec_hc --mapper=PAM --dropper=heuristic --tasks=100 \
    --trials=1 --seed=-7
expect_flag_error bad_on_error "--on-error must be abort or skip, got 'x'" \
    serve "${serve_args[@]}" --on-error=x --stream=/dev/null
expect_flag_error negative_watermark \
    "--shed-watermark must be a non-negative int, got -3" \
    serve "${serve_args[@]}" --shed-watermark=-3 --stream=/dev/null
expect_flag_error missing_restore "cannot read /nonexistent/snap" \
    serve "${serve_args[@]}" --restore=/nonexistent/snap --stream=/dev/null
expect_flag_error negative_snapshot_every \
    "--snapshot-every must be a non-negative event count" \
    serve "${serve_args[@]}" --snapshot-every=-5 --stream=/dev/null
expect_flag_error snapshot_every_without_out \
    "--snapshot-every needs --snapshot-out" \
    serve "${serve_args[@]}" --snapshot-every=10 --stream=/dev/null
# A capacity past int range must not wrap onto a small valid one; serve
# resolves --capacity through the same spec key as run and sweep.
expect_flag_error serve_capacity_overflow \
    "sweep key capacity: integer out of range '4294967302'" \
    serve "${serve_args[@]}" --capacity=4294967302 --stream=/dev/null

# Typed flag values parse whole or not at all: no silent seed 0 for
# garbage, no truncation at trailing characters, no clamping on overflow,
# and no bool that reads anything but 0/1/true/false as true.
expect_flag_error serve_seed_garbage "--seed: malformed integer 'abc'" \
    serve "${serve_args[@]}" --seed=abc --stream=/dev/null
expect_flag_error serve_seed_trailing "--seed: malformed integer '12abc'" \
    serve "${serve_args[@]}" --seed=12abc --stream=/dev/null
expect_flag_error serve_seed_overflow \
    "--seed: integer out of range '18446744073709551615'" \
    serve "${serve_args[@]}" --seed=18446744073709551615 --stream=/dev/null
expect_flag_error serve_snapshot_every_garbage \
    "--snapshot-every: malformed integer 'abc'" \
    serve "${serve_args[@]}" --snapshot-every=abc \
    --snapshot-out="$tmp_dir/snap" --stream=/dev/null
expect_flag_error serve_watermark_exponent \
    "--shed-watermark: malformed integer '1e3'" \
    serve "${serve_args[@]}" --shed-watermark=1e3 --stream=/dev/null
expect_flag_error serve_bool_spelling \
    "sweep key conditioning: expected 0/1/true/false, got 'no'" \
    serve "${serve_args[@]}" --conditioning=no --stream=/dev/null
expect_flag_error run_seed_garbage "--seed: malformed integer '7x'" \
    --scenario=spec_hc --mapper=PAM --dropper=heuristic --tasks=100 \
    --trials=1 --seed=7x
expect_flag_error sweep_threads_garbage "--threads: malformed integer '2x'" \
    sweep --mapper=PAM --dropper=heuristic --tasks=100 --trials=1 --threads=2x

# run resolves its flags through the sweep spec checks: task counts,
# oversubscription and capacity are range-checked before any trial runs.
run_args=(--scenario=spec_hc --mapper=PAM --dropper=heuristic --trials=1)
expect_flag_error run_zero_tasks "n_tasks must be >= 1" \
    "${run_args[@]}" --tasks=0
expect_flag_error run_negative_tasks "n_tasks must be >= 1" \
    "${run_args[@]}" --tasks=-5
expect_flag_error run_negative_oversub "oversubscription must be > 0" \
    "${run_args[@]}" --tasks=300 --oversub=-1
expect_flag_error run_zero_oversub "oversubscription must be > 0" \
    "${run_args[@]}" --tasks=300 --oversub=0
expect_flag_error run_capacity_overflow \
    "sweep key capacity: integer out of range '4294967302'" \
    "${run_args[@]}" --tasks=300 --capacity=4294967302

if [[ $fails -ne 0 ]]; then
  echo "serve errors test: $fails check(s) failed" >&2
  exit 1
fi
echo "serve errors test OK: all error paths line-numbered, stats survive" \
     "teardown, skip mode recovers"
