#!/usr/bin/env bash
# Run scripts/pipeline.sh at BASE_REF and in the working tree, print each
# step's wall time for both, and diff the two output directories. A change
# that should not alter any output (a speed-up, a refactor) must show no
# difference: every checkpoint, trace, eval record, ROC and metric file and
# every log agree byte for byte.
#
# BASE_REF is checked out in a temporary `git worktree`, removed on exit, and
# runs the working tree's pipeline.sh, so both sides run the same steps.
# Outputs land in OUT_DIR/base and OUT_DIR/change; the timings in
# OUT_DIR/base.times and OUT_DIR/change.times.
#
# Usage: scripts/compare_pipeline.sh BASE_REF OUT_DIR
# Exits 0 when the outputs agree and 1 when they differ.
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 BASE_REF OUT_DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
base_ref=$(git -C "$root" rev-parse --verify "$1^{commit}")
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -rf "$out/base" "$out/change"

tree=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tree/base" 2> /dev/null || true; rm -rf "$tree"' EXIT
git -C "$root" worktree add --quiet --detach "$tree/base" "$base_ref"
mkdir -p "$tree/base/scripts"
cp "$root/scripts/pipeline.sh" "$tree/base/scripts/pipeline.sh"

# side NAME ROOT: the pipeline at ROOT into OUT_DIR/NAME, its stderr (the timings) into OUT_DIR/NAME.times
side() {
    echo "== $1: $2" >&2
    if ! "$2/scripts/pipeline.sh" "$out/$1" 2> "$out/$1.times"; then
        cat "$out/$1.times" >&2
        exit 1
    fi
}
side base "$tree/base"
side change "$root"

echo "step base_s change_s"
awk 'NR == FNR { if ($1 == "time") base[$2] = $3; next } $1 == "time" { print $2, base[$2], $3 }' \
    "$out/base.times" "$out/change.times"
if diff -r "$out/base" "$out/change"; then
    echo "outputs identical"
else
    echo "outputs differ" >&2
    exit 1
fi
