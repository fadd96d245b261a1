#!/usr/bin/env bash
# Online-serve smoke (ctest + CI): pipe the canned event stream through
# `taskdrop_cli serve` and require the decision log to be byte-identical
# to the committed golden — the online admission service's end-to-end
# determinism contract (stats go to a side channel, so the log carries no
# timing noise). The stream goes in twice: as --stream with the log in
# --out, and on stdin with the log on stdout.
#
#   tools/serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>
set -euo pipefail

cli=${1:?usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}
stream=${2:?usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}
golden=${3:?usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

"$cli" serve --scenario=spec_hc --mapper=PAM --dropper=heuristic \
    --volatile --stream="$stream" --out="$tmp_dir/decisions.log" \
    --stats-out="$tmp_dir/stats.txt"
diff "$golden" "$tmp_dir/decisions.log"
cat "$tmp_dir/stats.txt"

"$cli" serve --scenario=spec_hc --mapper=PAM --dropper=heuristic \
    --volatile < "$stream" > "$tmp_dir/stdout.log" 2> "$tmp_dir/stderr.txt"
diff "$golden" "$tmp_dir/stdout.log"
echo "serve smoke OK: decision log (--out and stdout) is byte-identical to $(basename "$golden")"
