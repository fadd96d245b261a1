#!/usr/bin/env bash
# Regenerates specs/golden/<name>.json, the `sweep --json` report of every
# figure and ablation spec, with the given CLI. The golden.<name> ctests
# regenerate each report and compare it byte for byte, so any change to a
# decision, a counter or a number's rendering shows up as a failing test;
# a change that means to move them runs this script and says so.
#
#   tools/bless_goldens.sh <taskdrop_cli>
set -euo pipefail

cli=${1:?usage: bless_goldens.sh <taskdrop_cli>}
root=$(cd "$(dirname "$0")/.." && pwd)

mkdir -p "$root/specs/golden"
for spec in "$root"/specs/fig*.sweep "$root"/specs/ablation_*.sweep; do
  name=$(basename "$spec" .sweep)
  "$cli" sweep --spec="$spec" --json > "$root/specs/golden/$name.json.tmp"
  mv "$root/specs/golden/$name.json.tmp" "$root/specs/golden/$name.json"
  echo "blessed specs/golden/$name.json"
done
