#!/usr/bin/env bash
# Kill-and-resume smoke (ctest + CI): run the canned event stream halfway,
# snapshot the daemon, restore the snapshot into a brand-new process, feed
# it the remainder, and require the two decision logs concatenated to be
# byte-identical to the uninterrupted run's committed golden — the
# survivability contract of the online admission service. A restore under
# any other configuration must exit 1 naming the key that differs.
#
#   tools/serve_resume_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>
set -euo pipefail

cli=${1:?usage: serve_resume_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}
stream=${2:?usage: serve_resume_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}
golden=${3:?usage: serve_resume_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

# Split at a line boundary halfway through the stream. The daemon confirms
# every Start offer immediately, so its state after N lines is exactly its
# mid-stream state — a split is equivalent to a kill at that point.
total=$(wc -l < "$stream")
half=$((total / 2))
head -n "$half" "$stream" > "$tmp_dir/part1.stream"
tail -n +"$((half + 1))" "$stream" > "$tmp_dir/part2.stream"

serve_args=(--scenario=spec_hc --mapper=PAM --dropper=heuristic)

"$cli" serve "${serve_args[@]}" --stream="$tmp_dir/part1.stream" \
    --out="$tmp_dir/dec1.log" --stats-out="$tmp_dir/stats1.txt" \
    --snapshot-out="$tmp_dir/snapshot.txt"

# restore_half [flag...]: serves the second half from the snapshot, with
# its decision log in dec2.log.
restore_half() {
  "$cli" serve "${serve_args[@]}" --stream="$tmp_dir/part2.stream" \
      --out="$tmp_dir/dec2.log" --stats-out=/dev/null \
      --restore="$tmp_dir/snapshot.txt" "$@"
}
# The resumed log equals the golden; the spec's name and serve options
# outside the snapshot's configuration echo do not count.
printf 'name = renamed\n' > "$tmp_dir/renamed.sweep"
for extra in --on-error=abort --spec="$tmp_dir/renamed.sweep" \
    --on-error=skip; do
  restore_half "$extra"
  cat "$tmp_dir/dec1.log" "$tmp_dir/dec2.log" | diff "$golden" -
done

# The snapshot must also restore-and-resnapshot to identical bytes.
restore_half --stream=/dev/null --snapshot-out="$tmp_dir/snapshot2.txt"
diff "$tmp_dir/snapshot.txt" "$tmp_dir/snapshot2.txt"

# The echo holds the cell's spec keys and the shed watermarks: change any
# one and the restore exits 1 naming it.
for change in --scenario=video --mapper=MM --dropper=reactive \
    --dropper=threshold --dropper=optimal --eta=5 --beta=3 \
    --candidate_window=2 --capacity=5 --engagement=on-deadline-miss \
    --conditioning=1 --approx=1 --seed=3 --shed-watermark=4 \
    --shed-machine-backlog=4; do
  key=${change%%=*} status=0
  restore_half "$change" 2> "$tmp_dir/err.txt" || status=$?
  ((status == 1)) && grep -qE "[:;] ${key#--} ('|unset)" "$tmp_dir/err.txt" ||
      { echo "$change: exit $status, $(cat "$tmp_dir/err.txt")" >&2; exit 1; }
done

# --- Periodic checkpoints + a genuine mid-stream SIGKILL. ---------------
# Feed exactly `every` effective events (blank/comment lines do not count)
# through a fifo into a daemon running --snapshot-every=every: the single
# checkpoint lands atomically right after event `every`'s decisions are
# flushed. The daemon is then SIGKILLed while its stream is still open —
# no clean shutdown, no EOF — and a fresh process restored from the
# checkpoint serves the remainder. The concatenated decision logs must
# again match the golden byte for byte.
every=20
cut_line=$(awk -v n="$every" '
  !/^[ \t\r]*(#|$)/ { if (--n == 0) { print NR; exit } }
' "$stream")
head -n "$cut_line" "$stream" > "$tmp_dir/live.stream"
tail -n +"$((cut_line + 1))" "$stream" > "$tmp_dir/rest.stream"

fifo="$tmp_dir/events.fifo"
mkfifo "$fifo"
"$cli" serve "${serve_args[@]}" --stream="$fifo" \
    --out="$tmp_dir/dec_kill.log" --stats-out="$tmp_dir/stats_kill.txt" \
    --snapshot-out="$tmp_dir/checkpoint.txt" --snapshot-every="$every" &
daemon=$!
# Keep the fifo's write end open on fd 3 so the daemon never sees EOF:
# the kill below genuinely lands mid-stream.
exec 3> "$fifo"
cat "$tmp_dir/live.stream" >&3
for _ in $(seq 1 1000); do
  [[ -s "$tmp_dir/checkpoint.txt" ]] && break
  sleep 0.01
done
if [[ ! -s "$tmp_dir/checkpoint.txt" ]]; then
  kill -9 "$daemon" 2>/dev/null || true
  echo "serve_resume_smoke: periodic checkpoint never appeared" >&2
  exit 1
fi
kill -9 "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true
exec 3>&-

"$cli" serve "${serve_args[@]}" --stream="$tmp_dir/rest.stream" \
    --out="$tmp_dir/dec_rest.log" --stats-out="$tmp_dir/stats_rest.txt" \
    --restore="$tmp_dir/checkpoint.txt"
cat "$tmp_dir/dec_kill.log" "$tmp_dir/dec_rest.log" \
    > "$tmp_dir/checkpointed.log"
diff "$golden" "$tmp_dir/checkpointed.log"

echo "serve resume smoke OK: killed after $half/$total lines (snapshot)" \
     "and SIGKILLed mid-stream after $every events (periodic checkpoint);" \
     "both resumed logs are byte-identical to $(basename "$golden")"
