#!/usr/bin/env bash
# Online-serve smoke (ctest + CI): pipe the canned event stream through
# `taskdrop_cli serve` and require the decision log to be byte-identical
# to the committed golden — the online admission service's end-to-end
# determinism contract (stats go to a side channel, so the log carries no
# timing noise). The stream goes in three times: as --stream with the log
# in --out, on stdin with the log on stdout, and once more with the
# configuration in a --spec file whose mapper an inline flag overrides.
#
#   tools/serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>
set -euo pipefail

cli=${1:?usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}
stream=${2:?usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}
golden=${3:?usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden>}

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

"$cli" serve --scenario=spec_hc --mapper=PAM --dropper=heuristic \
    --stream="$stream" --out="$tmp_dir/decisions.log" \
    --stats-out="$tmp_dir/stats.txt"
diff "$golden" "$tmp_dir/decisions.log"
cat "$tmp_dir/stats.txt"

"$cli" serve --scenario=spec_hc --mapper=PAM --dropper=heuristic \
    < "$stream" > "$tmp_dir/stdout.log" 2> "$tmp_dir/stderr.txt"
diff "$golden" "$tmp_dir/stdout.log"

# Inline spec-key flags override the --spec file: the file's MM must give
# way to --mapper=PAM, or the log could not match the golden.
printf 'scenario = spec_hc\nmapper = MM\ndropper = heuristic\n' \
    > "$tmp_dir/one_cell.sweep"
"$cli" serve --spec="$tmp_dir/one_cell.sweep" --mapper=PAM \
    --stream="$stream" --out="$tmp_dir/spec.log" \
    --stats-out="$tmp_dir/spec_stats.txt"
diff "$golden" "$tmp_dir/spec.log"
echo "serve smoke OK: decision log (--out, stdout and --spec with an inline override) is byte-identical to $(basename "$golden")"
